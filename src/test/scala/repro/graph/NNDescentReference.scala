package repro.graph

import repro.core.{MetricSpace, ParRunner, VPTree}
import scala.collection.mutable
import scala.util.Random

/** Test-only reference: `NNDescent.build` as it was on boxed per-vertex
  * lists (`NNList`, `ArrayBuffer` join lists, `Random.shuffle`, a
  * `HashMap` per local-join chunk), with the flat version's local-join
  * rules (lists seeded from the master lists, known distances read, only
  * surviving additions returned) written on hash maps and sets. Its exact
  * K'-NN stage searches its own second-round VP-tree with [[VPTree.knn]],
  * which `VPTreeSpec` checks against `BruteForce.knn`. The flat
  * implementation must build bit-identical results with the same number of
  * distance evaluations.
  */
object NNDescentReference {

  /** Bounded nearest-neighbor candidate list, ascending by distance. With
    * `flagged`, it also keeps NNDescent's per-entry "new" flags aligned with
    * the sorted entries (the driver-side master lists).
    */
  final class NNList(val cap: Int, flagged: Boolean = false) extends Serializable {
    val ids = new Array[Int](cap)
    val ds = new Array[Double](cap)
    val isNew: Array[Boolean] = if (flagged) new Array[Boolean](cap) else null
    var size = 0

    /** The distance a new entry must beat; a zero-capacity list (a space of
      * one object) admits nothing.
      */
    def worst: Double =
      if (size < cap) Double.MaxValue else if (cap == 0) Double.NegativeInfinity else ds(size - 1)

    def contains(id: Int): Boolean = {
      var i = 0
      while (i < size) { if (ids(i) == id) return true; i += 1 }
      false
    }

    /** Sorted insert (flagged new); rejects duplicates and non-improving
      * distances.
      */
    def insert(id: Int, d: Double): Boolean = {
      if (size == cap && d >= worst) return false
      if (contains(id)) return false
      var pos = size
      if (size == cap) pos = size - 1 else size += 1
      while (pos > 0 && ds(pos - 1) > d) {
        ids(pos) = ids(pos - 1); ds(pos) = ds(pos - 1)
        if (isNew != null) isNew(pos) = isNew(pos - 1)
        pos -= 1
      }
      ids(pos) = id; ds(pos) = d
      if (isNew != null) isNew(pos) = true
      true
    }
  }

  /** Builds the AKNN graph. Deterministic in `cfg.seed` for a fixed runner
    * chunking (sampling happens on the driver; executors only evaluate
    * distances).
    */
  def build(space: MetricSpace, cfg: NNDescentConfig, runner: ParRunner): AKnnResult = {
    val n = space.n
    val k = math.min(cfg.K, n - 1)
    val rng = new Random(cfg.seed)
    val buckets = Array.fill(n)(new NNList(k, flagged = true))
    val isPivot = new Array[Boolean](n)

    // ---- initialization -------------------------------------------------
    val tree = if (cfg.vpInit) initByVpTree(space, buckets, isPivot, k, rng) else null
    fillRandom(space, buckets, k, rng) // cover objects the partitioning missed

    // ---- iterative AKNN updates ----------------------------------------
    var iter = 0
    var converged = false
    val updatedPrev = Array.fill(n)(true)
    while (iter < cfg.maxIters && !converged) {
      val inserts = runIteration(space, buckets, updatedPrev, k, cfg, rng, runner)
      iter += 1
      if (inserts < 0.002 * n * k) converged = true
    }

    // ---- exact K'-NN retrieval (NNDescent+ third stage) ----------------
    val exactLists: Array[Array[Int]] =
      if (cfg.exactListSize > 0 && cfg.exactCount > 0) {
        val m = math.min(cfg.exactCount, n)
        val bySpread = (0 until n).sortBy(v => -buckets(v).ds.take(buckets(v).size).sum)
        val targets = bySpread.take(m).toArray
        val kk = math.min(cfg.exactListSize, n - 1)
        val res =
          runner.runWithData(targets.length, (space, tree, targets, kk)) { (data, s, e) =>
            val (sp, t, tg, kp) = data
            (s until e).map(i => (i, t.knn(sp, tg(i), kp))).toArray
          }
        val out = new Array[Array[Int]](n)
        res.flatten.foreach { case (i, lst) => out(targets(i)) = lst }
        out
      } else null

    val ids = Array.tabulate(n)(v => buckets(v).ids.take(buckets(v).size))
    AKnnResult(ids, isPivot, exactLists, iter)
  }

  /** Algorithm 3: repeated VP-tree ball partitioning; left leaf groups seed
    * exact local K-NNs, vantage points of small partitions become pivots.
    * Returns the last round's tree.
    */
  private def initByVpTree(
      space: MetricSpace,
      buckets: Array[NNList],
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
        // each unordered pair once, into both lists
        var i = 0
        while (i < group.length) {
          val p = group(i)
          var j = i + 1
          while (j < group.length) {
            val q = group(j)
            val d = space.dist(p, q)
            buckets(p).insert(q, d)
            buckets(q).insert(p, d)
            j += 1
          }
          i += 1
        }
      }
    }
    tree
  }

  /** Random AKNNs for any object whose list is still under-filled. */
  private def fillRandom(space: MetricSpace, buckets: Array[NNList], k: Int, rng: Random): Unit = {
    val n = space.n
    var v = 0
    while (v < n) {
      var guard = 0
      while (buckets(v).size < k && guard < 8 * k) {
        val u = rng.nextInt(n)
        if (u != v) buckets(v).insert(u, space.dist(v, u))
        guard += 1
      }
      v += 1
    }
  }

  /** One local-join iteration: the driver samples the join lists (including
    * reverse neighbors), executors join them on copies of the master lists,
    * and the driver merges the entries they added. Returns the number of
    * successful inserts.
    */
  private def runIteration(
      space: MetricSpace,
      buckets: Array[NNList],
      updatedPrev: Array[Boolean],
      k: Int,
      cfg: NNDescentConfig,
      rng: Random,
      runner: ParRunner,
  ): Long = {
    val n = space.n
    val sampleK = math.max(1, (0.5 * k).toInt)

    // forward new/old split, with the NNDescent+ skip: an unchanged object's
    // entry is not added to the similar-object (old) list.
    val fwdNew = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    val fwdOld = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    var v = 0
    while (v < n) {
      val b = buckets(v)
      var i = 0
      while (i < b.size) {
        val u = b.ids(i)
        if (b.isNew(i)) fwdNew(v) += u
        else if (!cfg.skipUnchanged || updatedPrev(u)) fwdOld(v) += u
        i += 1
      }
      v += 1
    }

    // reverse lists
    val revNew = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    val revOld = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    v = 0
    while (v < n) {
      fwdNew(v).foreach(u => revNew(u) += v)
      fwdOld(v).foreach(u => revOld(u) += v)
      v += 1
    }

    def sample(buf: mutable.ArrayBuffer[Int], cap: Int): Seq[Int] =
      if (buf.length <= cap) buf.toSeq
      else rng.shuffle(buf).take(cap).toSeq

    val joinNew = new Array[Array[Int]](n)
    val joinOld = new Array[Array[Int]](n)
    v = 0
    while (v < n) {
      val sNew = sample(fwdNew(v), sampleK) ++ sample(revNew(v), sampleK)
      val sOld = fwdOld(v).toSeq ++ sample(revOld(v), sampleK)
      joinNew(v) = sNew.distinct.toArray
      joinOld(v) = sOld.distinct.toArray
      v += 1
    }

    // clear "new" flags of the forward entries that participated this round
    v = 0
    while (v < n) {
      val b = buckets(v)
      val used = joinNew(v)
      var i = 0
      while (i < b.size) {
        if (b.isNew(i) && used.contains(b.ids(i))) b.isNew(i) = false
        i += 1
      }
      v += 1
    }

    val proposals =
      runner.runWithData(n, (space, joinNew, joinOld, buckets, k)) { (data, s, e) =>
        localJoinChunk(data, s, e)
      }

    // merge on the driver
    val updatedNow = new Array[Boolean](n)
    var inserts = 0L
    proposals.foreach { chunk =>
      chunk.foreach { case (target, ids, ds) =>
        var i = 0
        while (i < ids.length) {
          if (ids(i) != target && buckets(target).insert(ids(i), ds(i))) {
            inserts += 1
            updatedNow(target) = true
          }
          i += 1
        }
      }
    }
    System.arraycopy(updatedNow, 0, updatedPrev, 0, n)
    inserts
  }

  /** Pure per-chunk local join: evaluates new×new and new×old pairs of each
    * vertex's join lists and offers each pair to both endpoints' copies of
    * their master lists, made on first use. Runs as one [[ParRunner]] chunk
    * (a Spark task under the SparkRunner), reading the shared state only
    * through `data`. For each outer element `a`, a pair already offered in
    * `a`'s partner loop is skipped, and a partner in `a`'s master row is not
    * evaluated: only `a` is offered to its list. Returns, per list, the
    * entries the chunk added that survive, in list order.
    */
  private def localJoinChunk(
      data: (MetricSpace, Array[Array[Int]], Array[Array[Int]], Array[NNList], Int),
      s: Int,
      e: Int,
  ): Array[(Int, Array[Int], Array[Double])] = {
    val (space, joinNew, joinOld, master, k) = data
    val cand = mutable.HashMap.empty[Int, NNList]

    // the flags mark the entries this chunk added
    def list(t: Int): NNList = cand.getOrElseUpdate(t, {
      val l = new NNList(k, flagged = true)
      Array.copy(master(t).ids, 0, l.ids, 0, master(t).size)
      Array.copy(master(t).ds, 0, l.ds, 0, master(t).size)
      l.size = master(t).size
      l
    })
    def offer(t: Int, u: Int, d: Double): Unit = if (d < list(t).worst) list(t).insert(u, d)

    var v = s
    while (v < e) {
      val nl = joinNew(v)
      val ol = joinOld(v)
      var i = 0
      while (i < nl.length) {
        val a = nl(i)
        val m = master(a)
        val inMasterRow = (0 until m.size).map(x => m.ids(x) -> m.ds(x)).toMap
        val offered = mutable.HashSet.empty[Int]
        (nl.drop(i + 1) ++ ol).foreach { b =>
          if (b != a && offered.add(b)) inMasterRow.get(b) match {
            case Some(d) => offer(b, a, d)
            case None =>
              val d = space.dist(a, b)
              offer(a, b, d); offer(b, a, d)
          }
        }
        i += 1
      }
      v += 1
    }
    cand.iterator.map { case (t, lst) =>
      val added = (0 until lst.size).filter(lst.isNew(_))
      (t, added.map(lst.ids(_)).toArray, added.map(lst.ds(_)).toArray)
    }.toArray
  }
}
