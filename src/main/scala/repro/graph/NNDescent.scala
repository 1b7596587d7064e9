package repro.graph

import repro.core.{MetricSpace, ParRunner, Shuffle, VPTree}
import scala.util.Random

/** Configuration for [[NNDescent.build]].
  *
  * KGraph [Dong et al., WWW'11]: `vpInit = false`, `skipUnchanged = false`,
  * `exactListSize = 0`. NNDescent+ (§5.1): `vpInit = true` (VP-tree-based
  * initialization; vantage points of small partitions become pivots),
  * `skipUnchanged = true` (skip similar-object lists that did not change in
  * the previous iteration), `exactListSize = K'` and `exactCount = m` (exact
  * K'-NN retrieval for the `m` objects whose AKNN distances sum highest —
  * the probable outliers). The exact lists are searched on the
  * initialization's VP-tree, so `exactListSize > 0` needs `vpInit`.
  */
final case class NNDescentConfig(
    K: Int,
    vpInit: Boolean,
    skipUnchanged: Boolean,
    exactListSize: Int = 0,
    exactCount: Int = 0,
    maxIters: Int = 10,
    seed: Long = 42L,
) {
  require(exactListSize <= 0 || vpInit, "the exact K'-NN stage searches the VP-tree of vpInit")
}

/** Result of the (approximate) K-NN graph construction.
  *
  * @param nbrId      per-vertex neighbor ids, ascending by distance
  * @param isPivot    VP-tree pivots (all-false when `vpInit` is off)
  * @param exactLists exact K'-NN lists for the `m` selected objects
  *                   (`null` elsewhere / when disabled)
  * @param iterations number of NNDescent update iterations executed
  */
final case class AKnnResult(
    nbrId: Array[Array[Int]],
    isPivot: Array[Boolean],
    exactLists: Array[Array[Int]],
    iterations: Int,
)

/** `rows` bounded nearest-neighbor lists of capacity `cap`, each ascending by
  * distance, in flat row-major arrays: row `r` is
  * `ids/ds/isNew(r * cap until r * cap + size(r))`. The per-entry flag
  * `isNew` is set by [[insert]]: in the driver-side master lists it is
  * NNDescent's "new" flag; in a local-join chunk's lists, [[seed]]ed from
  * the master lists, it marks the entries the chunk added. It is the
  * program's one bounded K-NN list: the master lists, the local join's
  * per-chunk candidate lists and the ground truth's exact K-NN row, the
  * reference the exact K'-NN lists are tested against (it ignores the
  * flags), share its insert rule.
  */
final class NNLists(val rows: Int, val cap: Int) extends Serializable {
  val ids = new Array[Int](rows * cap)
  val ds = new Array[Double](rows * cap)
  val isNew = new Array[Boolean](rows * cap)
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
    * distance; rejects duplicates and, in a full row, any distance not below
    * the worst (NaN included).
    */
  def insert(r: Int, id: Int, d: Double): Boolean = {
    val sz = sizes(r)
    if (sz == cap && !(d < worst(r))) return false
    if (contains(r, id)) return false
    val base = r * cap
    var pos = base + sz
    if (sz == cap) pos -= 1 else sizes(r) = sz + 1
    while (pos > base && ds(pos - 1) > d) {
      ids(pos) = ids(pos - 1); ds(pos) = ds(pos - 1); isNew(pos) = isNew(pos - 1)
      pos -= 1
    }
    ids(pos) = id; ds(pos) = d; isNew(pos) = true
    true
  }

  /** Copies the rows of `from`, a list of the same shape, with every entry
    * unflagged.
    */
  def seed(from: NNLists): Unit = {
    System.arraycopy(from.ids, 0, ids, 0, ids.length)
    System.arraycopy(from.ds, 0, ds, 0, ds.length)
    System.arraycopy(from.sizes, 0, sizes, 0, rows)
    java.util.Arrays.fill(isNew, false)
  }

  def idsOf(r: Int): Array[Int] = java.util.Arrays.copyOfRange(ids, r * cap, r * cap + sizes(r))
}

/** NNDescent's local join [Dong et al., WWW'11] with the NNDescent+
  * extensions of §5.1. The driver keeps the master lists in one
  * [[NNLists]]. Each iteration it reads the join lists from them in place
  * (reverse lists first, then each vertex's own row at its turn), samples
  * them, and fans the local join out; each chunk joins on its own copy of
  * the master lists. The exact K'-NN stage searches the initialization's
  * second VP-tree ([[VPTree.knn]]).
  */
object NNDescent {

  /** Sample rate: each iteration joins `Rho * K` new and old neighbors per
    * vertex (NNDescent's `rho`).
    */
  val Rho = 0.5

  /** Convergence threshold: iterations stop once fewer than `Delta * n * K`
    * list entries improved (NNDescent's `delta`).
    */
  val Delta = 0.002

  /** Per-vertex id lists in compressed sparse row form: row `v` is
    * `ids(off(v) until off(v + 1))`.
    */
  private[graph] final case class Csr(off: Array[Int], ids: Array[Int])

  /** One iteration's join lists and the master lists they were read from,
    * shared by every local-join chunk. The driver changes `master` only when
    * the local join has returned.
    */
  private[graph] final case class JoinLists(joinNew: Csr, joinOld: Csr, master: NNLists)

  /** One chunk's improving candidates, the entries it added that survive in
    * its rows: `ids/ds(off(i) until off(i + 1))` are those of `targets(i)`,
    * in row order (ascending by distance).
    */
  private final case class Candidates(targets: Array[Int], off: Array[Int], ids: Array[Int], ds: Array[Double])

  /** Builds the AKNN graph. Deterministic in `cfg.seed`, and independent of
    * the runner's chunking (sampling happens on the driver; executors only
    * evaluate distances); the evaluation count depends on the chunking,
    * because each chunk reuses the distances it knows. The local-join and
    * exact K'-NN fan-outs read the space under its key
    * ([[ParRunner.shareSpace]]), so it is shared once, and ship only their
    * join and master lists, and targets and VP-tree.
    */
  def build(space: MetricSpace, cfg: NNDescentConfig, runner: ParRunner): AKnnResult = {
    val n = space.n
    val k = math.max(0, math.min(cfg.K, n - 1))
    val rng = new Random(cfg.seed)
    val lists = new NNLists(n, k)
    val isPivot = new Array[Boolean](n)

    // ---- initialization -------------------------------------------------
    val tree = if (cfg.vpInit) initByVpTree(space, lists, isPivot, k, rng) else null
    fillRandom(space, lists, k, rng) // cover objects the partitioning missed

    // ---- iterative AKNN updates ------------------------------------------
    var iter = 0
    var converged = false
    val updatedPrev = Array.fill(n)(true)
    while (iter < cfg.maxIters && !converged) {
      val inserts = runIteration(space, lists, updatedPrev, cfg, rng, runner)
      iter += 1
      if (inserts < Delta * n * k) converged = true
    }
    val ids = Array.tabulate(n)(lists.idsOf)

    // ---- exact K'-NN retrieval (NNDescent+ third stage) ------------------
    val exactLists: Array[Array[Int]] =
      if (cfg.exactListSize > 0 && cfg.exactCount > 0) {
        val m = math.min(cfg.exactCount, n)
        // each master row's distances, summed in row order
        val spread = Array.tabulate(n) { v =>
          var sum = 0.0
          var i = v * k
          while (i < v * k + lists.size(v)) { sum += lists.ds(i); i += 1 }
          sum
        }
        val targets = (0 until n).sortBy(v => -spread(v)).take(m).toArray
        val kk = math.min(cfg.exactListSize, n - 1)
        val knn = runner.mapIds(targets, space, (tree, kk)) { case (sp, (t, kp)) => t.knn(sp, _, kp) }
        val out = new Array[Array[Int]](n)
        targets.indices.foreach(i => out(targets(i)) = knn(i))
        out
      } else null

    AKnnResult(ids, isPivot, exactLists, iter)
  }

  /** Algorithm 3: repeated VP-tree ball partitioning; left leaf groups seed
    * exact local K-NNs, vantage points of small partitions become pivots.
    * Returns the last round's tree, which the exact K'-NN stage searches.
    *
    * Each unordered pair of a group is evaluated once and inserted into both
    * rows (`dist` is symmetric bit for bit). Row `group(a)` still receives
    * `group(0 until a)` and then `group(a + 1 until size)`, in that order,
    * and a round's groups are disjoint, so every list is as if each ordered
    * pair had been evaluated.
    */
  private def initByVpTree(
      space: MetricSpace,
      lists: NNLists,
      isPivot: Array[Boolean],
      k: Int,
      rng: Random,
  ): VPTree = {
    val capacity = math.max(2 * k, 8)
    val rounds = 2 // "a constant number of times"
    var tree: VPTree = null
    for (_ <- 0 until rounds) {
      tree = VPTree.build(space, capacity, rng.nextLong())
      tree.pivots.foreach(isPivot(_) = true)
      tree.leftLeafGroups.foreach { group =>
        var i = 0
        while (i < group.length) {
          val p = group(i)
          var j = i + 1
          while (j < group.length) {
            val q = group(j)
            val d = space.dist(p, q)
            lists.insert(p, q, d)
            lists.insert(q, p, d)
            j += 1
          }
          i += 1
        }
      }
    }
    tree
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

  /** The reverse join list of every vertex, read from the master lists: row
    * `u` holds every `v` whose list has `u` at an entry `i` with `keep(i)`,
    * by ascending `v`.
    */
  private def reverse(lists: NNLists, keep: Int => Boolean): Csr = {
    val n = lists.rows
    val off = new Array[Int](n + 1)
    def scan(visit: (Int, Int) => Unit): Unit = {
      var v = 0
      while (v < n) {
        var i = v * lists.cap
        val end = i + lists.size(v)
        while (i < end) { if (keep(i)) visit(v, lists.ids(i)); i += 1 }
        v += 1
      }
    }
    scan((_, u) => off(u + 1) += 1)
    var u = 0
    while (u < n) { off(u + 1) += off(u); u += 1 }
    val next = java.util.Arrays.copyOf(off, n)
    val ids = new Array[Int](off(n))
    scan { (v, u) => ids(next(u)) = v; next(u) += 1 }
    Csr(off, ids)
  }

  /** One local-join iteration: the driver samples the join lists (including
    * reverse neighbors) and ships them with the master lists; each chunk
    * joins its vertices' lists on a copy of the master lists
    * ([[localJoinChunk]]), and the driver merges the entries the chunks
    * added, chunk by chunk in chunk order. Returns the number of successful
    * inserts.
    *
    * The reverse lists are read from the master lists up front; vertex
    * `v`'s forward entries are read from its own row at its turn, before its
    * flags are cleared. An entry is old when it is not new and, under
    * `skipUnchanged`, its id's list changed in the previous iteration.
    * Per vertex the driver draws the forward-new, reverse-new and
    * reverse-old samples, in that order; the forward old list is taken
    * whole. Each join list keeps the first occurrence of every id.
    */
  private def runIteration(
      space: MetricSpace,
      lists: NNLists,
      updatedPrev: Array[Boolean],
      cfg: NNDescentConfig,
      rng: Random,
      runner: ParRunner,
  ): Long = {
    val n = lists.rows
    val k = lists.cap
    val sampleK = math.max(1, (Rho * k).toInt)

    def isOld(i: Int): Boolean = !lists.isNew(i) && (!cfg.skipUnchanged || updatedPrev(lists.ids(i)))
    val revNew = reverse(lists, lists.isNew(_))
    val revOld = reverse(lists, isOld)

    val fwdNew = new Array[Int](k) // row v's forward entries
    val fwdOld = new Array[Int](k)
    val work = new Array[Int](n) // no row repeats an id, so none is longer than n
    val stamp = new Array[Int](n) // generation stamps: the ids already in the list being built
    var gen = 0

    /** Appends the sample of `src(from until until)` to `out` from `at`,
      * skipping ids stamped `gen`; returns the new end.
      */
    def addSample(src: Array[Int], from: Int, until: Int, cap: Int, out: Array[Int], at: Int): Int = {
      val len = sample(src, from, until, cap, rng, work)
      var end = at
      var i = 0
      while (i < len) {
        val u = work(i)
        if (stamp(u) != gen) { stamp(u) = gen; out(end) = u; end += 1 }
        i += 1
      }
      end
    }

    // a join list is a subset of its forward and reverse rows, and the
    // forward rows hold as many entries as the reverse rows
    val newOff = new Array[Int](n + 1)
    val newIds = new Array[Int](2 * revNew.ids.length)
    val oldOff = new Array[Int](n + 1)
    val oldIds = new Array[Int](2 * revOld.ids.length)
    var v = 0
    while (v < n) {
      val row = v * k
      val end = row + lists.size(v)
      var nNew = 0; var nOld = 0
      var i = row
      while (i < end) {
        if (lists.isNew(i)) { fwdNew(nNew) = lists.ids(i); nNew += 1 }
        else if (isOld(i)) { fwdOld(nOld) = lists.ids(i); nOld += 1 }
        i += 1
      }
      gen += 1
      val fwdNewEnd = addSample(fwdNew, 0, nNew, sampleK, newIds, newOff(v))
      newOff(v + 1) = addSample(revNew.ids, revNew.off(v), revNew.off(v + 1), sampleK, newIds, fwdNewEnd)
      // clear the "new" flags of the forward entries that join this round;
      // membership is read from the stamps before the old list reuses them
      i = row
      while (i < end) {
        if (lists.isNew(i) && stamp(lists.ids(i)) == gen) lists.isNew(i) = false
        i += 1
      }
      gen += 1
      val fwdOldEnd = addSample(fwdOld, 0, nOld, Int.MaxValue, oldIds, oldOff(v)) // taken whole
      oldOff(v + 1) = addSample(revOld.ids, revOld.off(v), revOld.off(v + 1), sampleK, oldIds, fwdOldEnd)
      v += 1
    }
    val join = JoinLists(
      Csr(newOff, java.util.Arrays.copyOf(newIds, newOff(n))),
      Csr(oldOff, java.util.Arrays.copyOf(oldIds, oldOff(n))),
      lists,
    )

    val proposals = runner.runOnSpace(n, space, join)(localJoinChunk)

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

  /** Pure per-chunk local join: evaluates the new×new and new×old pairs of
    * each vertex's join lists and offers each pair to both endpoints' rows
    * of a copy of the master lists. Runs as one [[ParRunner]] chunk (a Spark
    * task under the SparkRunner), reading the shared state only through its
    * arguments.
    *
    * Known distances are reused (`dist` is deterministic and symmetric bit
    * for bit). For each outer element `a`, the ids of `a`'s master row are
    * stamped with their distances, and so is each partner `b` once `a`'s
    * partner loop has evaluated it. A pair already offered in the loop is
    * skipped; for a partner in `a`'s master row only `a` is offered to `b`'s
    * row, as `b` is in `a`'s row or was evicted from it.
    *
    * The chunk returns only the entries it added that survive in its rows,
    * in row order. Merged into the master lists after those of the chunks
    * before it, this gives the master lists that merging each of the chunk's
    * best candidates per row would: an entry the chunk dropped was beaten by
    * `K` distinct ids, each already in the master row or returned before it,
    * so the driver's insert would reject it too.
    */
  private def localJoinChunk(space: MetricSpace, join: JoinLists, s: Int, e: Int): Candidates = {
    val n = space.n
    val master = join.master
    val k = master.cap
    val cand = new NNLists(n, k)
    cand.seed(master)
    // per outer element `a`: stamp(b) is 2 * gen when b is in a's master row,
    // 2 * gen + 1 once the pair was offered in a's partner loop; known(b) is
    // dist(a, b) in both cases
    val stamp = new Array[Int](n)
    val known = new Array[Double](n)
    var gen = 0

    // a row that is not full has worst Double.MaxValue, so no infinite or NaN
    // distance enters it, nor through the merge the master lists
    def offer(t: Int, u: Int, d: Double): Unit = if (d < cand.worst(t)) cand.insert(t, u, d)

    def pairs(a: Int, partners: Array[Int], from: Int, until: Int): Unit = {
      var j = from
      while (j < until) {
        val b = partners(j)
        val st = stamp(b)
        if (st == 2 * gen) { offer(b, a, known(b)); stamp(b) = st + 1 }
        else if (st != 2 * gen + 1 && b != a) {
          val d = space.dist(a, b)
          offer(a, b, d); offer(b, a, d)
          stamp(b) = 2 * gen + 1; known(b) = d
        }
        j += 1
      }
    }

    val nw = join.joinNew
    val od = join.joinOld
    var v = s
    while (v < e) {
      var i = nw.off(v)
      while (i < nw.off(v + 1)) {
        val a = nw.ids(i)
        gen += 1
        var r = a * k
        val end = r + master.size(a)
        while (r < end) { stamp(master.ids(r)) = 2 * gen; known(master.ids(r)) = master.ds(r); r += 1 }
        pairs(a, nw.ids, i + 1, nw.off(v + 1))
        pairs(a, od.ids, od.off(v), od.off(v + 1))
        i += 1
      }
      v += 1
    }

    var rows = 0; var total = 0
    v = 0
    while (v < n) {
      var i = v * k
      val end = i + cand.size(v)
      val before = total
      while (i < end) { if (cand.isNew(i)) total += 1; i += 1 }
      if (total > before) rows += 1
      v += 1
    }
    val targets = new Array[Int](rows)
    val off = new Array[Int](rows + 1)
    val ids = new Array[Int](total)
    val ds = new Array[Double](total)
    var t = 0; var at = 0
    v = 0
    while (v < n) {
      var i = v * k
      val end = i + cand.size(v)
      val before = at
      while (i < end) {
        if (cand.isNew(i)) { ids(at) = cand.ids(i); ds(at) = cand.ds(i); at += 1 }
        i += 1
      }
      if (at > before) { targets(t) = v; off(t + 1) = at; t += 1 }
      v += 1
    }
    Candidates(targets, off, ids, ds)
  }
}
