package repro.graph

import repro.core.{BruteForce, MetricSpace, ParRunner, Shared, Shuffle, VPTree}
import scala.util.Random

/** Configuration for [[NNDescent.build]].
  *
  * KGraph [Dong et al., WWW'11]: `vpInit = false`, `skipUnchanged = false`,
  * `exactListSize = 0`. NNDescent+ (§5.1): `vpInit = true` (VP-tree-based
  * initialization; vantage points of small partitions become pivots),
  * `skipUnchanged = true` (skip similar-object lists that did not change in
  * the previous iteration), `exactListSize = K'` and `exactCount = m` (exact
  * K'-NN retrieval for the `m` objects whose AKNN distances sum highest —
  * the probable outliers).
  */
final case class NNDescentConfig(
    K: Int,
    vpInit: Boolean,
    skipUnchanged: Boolean,
    exactListSize: Int = 0,
    exactCount: Int = 0,
    maxIters: Int = 10,
    seed: Long = 42L,
)

/** Result of the (approximate) K-NN graph construction.
  *
  * @param nbrId      per-vertex neighbor ids, ascending by distance
  * @param nbrDist    matching distances
  * @param isPivot    VP-tree pivots (all-false when `vpInit` is off)
  * @param exactLists exact K'-NN lists for the `m` selected objects
  *                   (`null` elsewhere / when disabled)
  * @param iterations number of NNDescent update iterations executed
  */
final case class AKnnResult(
    nbrId: Array[Array[Int]],
    nbrDist: Array[Array[Double]],
    isPivot: Array[Boolean],
    exactLists: Array[Array[Int]],
    iterations: Int,
)

/** `rows` bounded nearest-neighbor lists of capacity `cap`, each ascending by
  * distance, in flat row-major arrays: row `r` is
  * `ids/ds(r * cap until r * cap + size(r))`. With `flagged`, it also keeps
  * NNDescent's per-entry "new" flags aligned with the sorted entries (the
  * driver-side master lists). The master lists and the local join's per-chunk
  * candidate lists share this one insert rule.
  */
final class NNLists(val rows: Int, val cap: Int, flagged: Boolean = false) {
  val ids = new Array[Int](rows * cap)
  val ds = new Array[Double](rows * cap)
  val isNew: Array[Boolean] = if (flagged) new Array[Boolean](rows * cap) else null
  private val sizes = new Array[Int](rows)

  def size(r: Int): Int = sizes(r)

  /** The distance a new entry of row `r` must beat; a zero-capacity list (a
    * space of one object) admits nothing.
    */
  def worst(r: Int): Double = {
    val sz = sizes(r)
    if (sz < cap) Double.MaxValue else if (cap == 0) Double.NegativeInfinity else ds(r * cap + sz - 1)
  }

  private def contains(r: Int, id: Int): Boolean = {
    var i = r * cap
    val end = i + sizes(r)
    while (i < end) { if (ids(i) == id) return true; i += 1 }
    false
  }

  /** Sorted insert into row `r` (flagged new), after any entries of equal
    * distance; rejects duplicates and non-improving distances.
    */
  def insert(r: Int, id: Int, d: Double): Boolean = {
    val sz = sizes(r)
    if (sz == cap && d >= worst(r)) return false
    if (contains(r, id)) return false
    val base = r * cap
    var pos = base + sz
    if (sz == cap) pos -= 1 else sizes(r) = sz + 1
    while (pos > base && ds(pos - 1) > d) {
      ids(pos) = ids(pos - 1); ds(pos) = ds(pos - 1)
      if (isNew != null) isNew(pos) = isNew(pos - 1)
      pos -= 1
    }
    ids(pos) = id; ds(pos) = d
    if (isNew != null) isNew(pos) = true
    true
  }

  def idsOf(r: Int): Array[Int] = java.util.Arrays.copyOfRange(ids, r * cap, r * cap + sizes(r))
  def distsOf(r: Int): Array[Double] = java.util.Arrays.copyOfRange(ds, r * cap, r * cap + sizes(r))
}

object NNDescent {

  /** Sample rate: each iteration joins `Rho * K` new and old neighbors per
    * vertex (NNDescent's `rho`).
    */
  val Rho = 0.5

  /** Convergence threshold: iterations stop once fewer than `Delta * n * K`
    * list entries improved (NNDescent's `delta`).
    */
  val Delta = 0.002

  /** One iteration's join lists and worst-distance snapshot, shared by every
    * local-join chunk.
    */
  private final case class JoinLists(joinNew: Csr, joinOld: Csr, worst: Array[Double], k: Int)

  /** One chunk's improving candidates: `ids/ds(off(i) until off(i + 1))`
    * are the candidates for `targets(i)`, ascending by distance.
    */
  private final case class Candidates(targets: Array[Int], off: Array[Int], ids: Array[Int], ds: Array[Double])

  /** Builds the AKNN graph. Deterministic in `cfg.seed` for a fixed runner
    * chunking (sampling happens on the driver; executors only evaluate
    * distances). The space is shared with the runner once per build, so the
    * local-join and exact K'-NN fan-outs ship only their join lists and
    * targets.
    */
  def build(space: MetricSpace, cfg: NNDescentConfig, runner: ParRunner): AKnnResult = {
    val n = space.n
    val k = math.min(cfg.K, n - 1)
    val rng = new Random(cfg.seed)
    val lists = new NNLists(n, k, flagged = true)
    val isPivot = new Array[Boolean](n)

    // ---- initialization -------------------------------------------------
    if (cfg.vpInit) initByVpTree(space, lists, isPivot, k, rng)
    fillRandom(space, lists, k, rng) // cover objects the partitioning missed

    val shared = runner.share(space)
    try {
      // ---- iterative AKNN updates --------------------------------------
      var iter = 0
      var converged = false
      val updatedPrev = Array.fill(n)(true)
      while (iter < cfg.maxIters && !converged) {
        val inserts = runIteration(shared, lists, updatedPrev, cfg, rng, runner)
        iter += 1
        if (inserts < Delta * n * k) converged = true
      }
      val ids = Array.tabulate(n)(lists.idsOf)
      val ds = Array.tabulate(n)(lists.distsOf)

      // ---- exact K'-NN retrieval (NNDescent+ third stage) --------------
      val exactLists: Array[Array[Int]] =
        if (cfg.exactListSize > 0 && cfg.exactCount > 0) {
          val m = math.min(cfg.exactCount, n)
          val spread = ds.map(_.sum)
          val targets = (0 until n).sortBy(v => -spread(v)).take(m).toArray
          val kk = math.min(cfg.exactListSize, n - 1)
          val knn = runner.mapIds(targets, (shared, kk)) { case ((sp, kp), v) => BruteForce.knn(sp.value, v, kp) }
          val out = new Array[Array[Int]](n)
          targets.indices.foreach(i => out(targets(i)) = knn(i))
          out
        } else null

      AKnnResult(ids, ds, isPivot, exactLists, iter)
    } finally shared.release()
  }

  /** Algorithm 3: repeated VP-tree ball partitioning; left leaf groups seed
    * exact local K-NNs, vantage points of small partitions become pivots.
    */
  private def initByVpTree(
      space: MetricSpace,
      lists: NNLists,
      isPivot: Array[Boolean],
      k: Int,
      rng: Random,
  ): Unit = {
    val capacity = math.max(2 * k, 8)
    val rounds = 2 // "a constant number of times"
    for (_ <- 0 until rounds) {
      val tree = VPTree.build(space, capacity, rng.nextLong())
      tree.pivots.foreach(isPivot(_) = true)
      tree.leftLeafGroups.foreach { group =>
        var i = 0
        while (i < group.length) {
          val p = group(i)
          var j = 0
          while (j < group.length) {
            if (j != i) lists.insert(p, group(j), space.dist(p, group(j)))
            j += 1
          }
          i += 1
        }
      }
    }
  }

  /** Random AKNNs for any object whose list is still under-filled. */
  private def fillRandom(space: MetricSpace, lists: NNLists, k: Int, rng: Random): Unit = {
    val n = space.n
    var v = 0
    while (v < n) {
      var guard = 0
      while (lists.size(v) < k && guard < 8 * k) {
        val u = rng.nextInt(n)
        if (u != v) lists.insert(v, u, space.dist(v, u))
        guard += 1
      }
      v += 1
    }
  }

  /** The sample of `row = src(from until until)` a join list takes: the row
    * itself when it has at most `cap` ids (no draws), else
    * `rng.shuffle(row).take(cap)`, computed without boxing and with the same
    * draws — `rng.nextInt(m)` for `m` = row length down to 2. Leaves the
    * sample in `work(0 until result)`.
    */
  private[graph] def sample(src: Array[Int], from: Int, until: Int, cap: Int, rng: Random, work: Array[Int]): Int = {
    val len = until - from
    System.arraycopy(src, from, work, 0, len)
    if (len <= cap) return len
    Shuffle.inPlace(work, len, rng)
    cap
  }

  /** Splits every master list into its new and old entries, in list order,
    * with the NNDescent+ skip: an unchanged object's entry is not added to
    * the similar-object (old) list.
    */
  private def splitForward(lists: NNLists, updatedPrev: Array[Boolean], skipUnchanged: Boolean): (Csr, Csr) = {
    val n = lists.rows
    val k = lists.cap
    val newOff = new Array[Int](n + 1)
    val oldOff = new Array[Int](n + 1)
    def isOld(i: Int): Boolean = !skipUnchanged || updatedPrev(lists.ids(i))
    var v = 0
    while (v < n) {
      var i = v * k
      val end = i + lists.size(v)
      while (i < end) {
        if (lists.isNew(i)) newOff(v + 1) += 1 else if (isOld(i)) oldOff(v + 1) += 1
        i += 1
      }
      newOff(v + 1) += newOff(v); oldOff(v + 1) += oldOff(v)
      v += 1
    }
    val newIds = new Array[Int](newOff(n))
    val oldIds = new Array[Int](oldOff(n))
    v = 0
    while (v < n) {
      var a = newOff(v); var b = oldOff(v)
      var i = v * k
      val end = i + lists.size(v)
      while (i < end) {
        if (lists.isNew(i)) { newIds(a) = lists.ids(i); a += 1 }
        else if (isOld(i)) { oldIds(b) = lists.ids(i); b += 1 }
        i += 1
      }
      v += 1
    }
    (Csr(newOff, newIds), Csr(oldOff, oldIds))
  }

  /** Reverse lists: row `u` holds every `v` with `u` in row `v`, by
    * ascending `v`.
    */
  private def reverse(fwd: Csr, n: Int): Csr = {
    val off = new Array[Int](n + 1)
    fwd.ids.foreach(u => off(u + 1) += 1)
    var u = 0
    while (u < n) { off(u + 1) += off(u); u += 1 }
    val next = java.util.Arrays.copyOf(off, n)
    val ids = new Array[Int](fwd.ids.length)
    var v = 0
    while (v < n) {
      var i = fwd.off(v)
      while (i < fwd.off(v + 1)) {
        val t = fwd.ids(i)
        ids(next(t)) = v; next(t) += 1
        i += 1
      }
      v += 1
    }
    Csr(off, ids)
  }

  /** One local-join iteration: the driver samples the join lists (including
    * reverse neighbors), executors evaluate candidate pairs against a
    * snapshot of each vertex's current worst distance, and the driver merges
    * the proposals. Returns the number of successful inserts.
    *
    * Per vertex the driver draws the forward-new, reverse-new and
    * reverse-old samples, in that order; the forward old list is taken
    * whole. Each join list keeps the first occurrence of every id.
    */
  private def runIteration(
      shared: Shared[MetricSpace],
      lists: NNLists,
      updatedPrev: Array[Boolean],
      cfg: NNDescentConfig,
      rng: Random,
      runner: ParRunner,
  ): Long = {
    val n = lists.rows
    val k = lists.cap
    val sampleK = math.max(1, (Rho * k).toInt)

    val (fwdNew, fwdOld) = splitForward(lists, updatedPrev, cfg.skipUnchanged)
    val revNew = reverse(fwdNew, n)
    val revOld = reverse(fwdOld, n)

    val work = new Array[Int](n) // no row repeats an id, so none is longer than n
    val stamp = new Array[Int](n) // generation stamps: the ids already in the list being built
    var gen = 0

    /** Appends the sample of row `v` of `src` to `out` from `at`, skipping
      * ids stamped `gen`; returns the new end.
      */
    def addSample(src: Csr, v: Int, cap: Int, out: Array[Int], at: Int): Int = {
      val len = sample(src.ids, src.off(v), src.off(v + 1), cap, rng, work)
      var end = at
      var i = 0
      while (i < len) {
        val u = work(i)
        if (stamp(u) != gen) { stamp(u) = gen; out(end) = u; end += 1 }
        i += 1
      }
      end
    }

    // a join list is a subset of its forward and reverse rows
    val newOff = new Array[Int](n + 1)
    val newIds = new Array[Int](fwdNew.ids.length + revNew.ids.length)
    val oldOff = new Array[Int](n + 1)
    val oldIds = new Array[Int](fwdOld.ids.length + revOld.ids.length)
    val worst = new Array[Double](n)
    var v = 0
    while (v < n) {
      gen += 1
      val fwdNewEnd = addSample(fwdNew, v, sampleK, newIds, newOff(v))
      newOff(v + 1) = addSample(revNew, v, sampleK, newIds, fwdNewEnd)
      // clear the "new" flags of the forward entries that join this round;
      // membership is read from the stamps before the old list reuses them
      var i = v * k
      val end = i + lists.size(v)
      while (i < end) {
        if (lists.isNew(i) && stamp(lists.ids(i)) == gen) lists.isNew(i) = false
        i += 1
      }
      gen += 1
      val fwdOldEnd = addSample(fwdOld, v, Int.MaxValue, oldIds, oldOff(v)) // taken whole
      oldOff(v + 1) = addSample(revOld, v, sampleK, oldIds, fwdOldEnd)
      worst(v) = lists.worst(v)
      v += 1
    }
    val join = JoinLists(
      Csr(newOff, java.util.Arrays.copyOf(newIds, newOff(n))),
      Csr(oldOff, java.util.Arrays.copyOf(oldIds, oldOff(n))),
      worst,
      k,
    )

    val proposals = runner.runWithData(n, (shared, join)) { case ((sp, jl), s, e) =>
      localJoinChunk(sp.value, jl, s, e)
    }

    // merge on the driver, chunk by chunk in chunk order
    val updatedNow = new Array[Boolean](n)
    var inserts = 0L
    proposals.foreach { c =>
      var t = 0
      while (t < c.targets.length) {
        val target = c.targets(t)
        var i = c.off(t)
        while (i < c.off(t + 1)) {
          if (lists.insert(target, c.ids(i), c.ds(i))) {
            inserts += 1
            updatedNow(target) = true
          }
          i += 1
        }
        t += 1
      }
    }
    System.arraycopy(updatedNow, 0, updatedPrev, 0, n)
    inserts
  }

  /** Pure per-chunk local join: evaluates new×new and new×old pairs of each
    * vertex's join lists, accumulating improving candidates into bounded
    * per-target lists. Runs as one [[ParRunner]] chunk (a Spark task under
    * the SparkRunner), reading the shared state only through its arguments.
    */
  private def localJoinChunk(space: MetricSpace, join: JoinLists, s: Int, e: Int): Candidates = {
    val n = space.n
    val worst = join.worst
    val cand = new NNLists(n, join.k)

    def consider(a: Int, b: Int): Unit = {
      if (a == b) return
      val d = space.dist(a, b)
      if (d < worst(a)) cand.insert(a, b, d)
      if (d < worst(b)) cand.insert(b, a, d)
    }

    val nw = join.joinNew
    val od = join.joinOld
    var v = s
    while (v < e) {
      var i = nw.off(v)
      while (i < nw.off(v + 1)) {
        var j = i + 1
        while (j < nw.off(v + 1)) { consider(nw.ids(i), nw.ids(j)); j += 1 }
        var t = od.off(v)
        while (t < od.off(v + 1)) { consider(nw.ids(i), od.ids(t)); t += 1 }
        i += 1
      }
      v += 1
    }

    var rows = 0; var total = 0
    v = 0
    while (v < n) {
      if (cand.size(v) > 0) { rows += 1; total += cand.size(v) }
      v += 1
    }
    val targets = new Array[Int](rows)
    val off = new Array[Int](rows + 1)
    val ids = new Array[Int](total)
    val ds = new Array[Double](total)
    var t = 0
    v = 0
    while (v < n) {
      val sz = cand.size(v)
      if (sz > 0) {
        targets(t) = v
        System.arraycopy(cand.ids, v * cand.cap, ids, off(t), sz)
        System.arraycopy(cand.ds, v * cand.cap, ds, off(t), sz)
        off(t + 1) = off(t) + sz
        t += 1
      }
      v += 1
    }
    Candidates(targets, off, ids, ds)
  }
}
