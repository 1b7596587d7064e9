package repro.baseline

import repro.core.{DODQuery, ExactCounter, LinearScanCounter, MetricSpace, ParRunner, Shuffle}
import scala.collection.mutable
import scala.util.Random

/** Result of one DOD run as the tables report it: the outliers, the wall
  * time and the size of the index the run reads.
  */
final case class DetectionResult(outliers: Array[Int], totalMs: Long, indexBytes: Long)

/** Scan DOD: count every object exactly with `counter`, stopping at `k`.
  * With a [[repro.core.LinearScanCounter]] it is the Nested-loop baseline
  * [Knorr & Ng, VLDB'98] (no index); with a [[repro.core.VPTreeCounter]]
  * it is the VP-tree baseline [Yianilos, SODA'93 + Chen et al., PVLDB'17],
  * whose tree is built offline. Objects fan out through the [[ParRunner]]
  * (the paper runs all algorithms multi-threaded).
  */
object ScanDOD {
  def run(runner: ParRunner, space: MetricSpace, r: Double, k: Int, counter: ExactCounter): DetectionResult = {
    DODQuery.check(r, k)
    val t0 = System.nanoTime()
    val out = runner.select(Array.range(0, space.n), space, counter)((sp, c, p) => c.count(sp, p, r, k, null) < k)
    DetectionResult(out, (System.nanoTime() - t0) / 1000000L, counter.sizeBytes)
  }
}

/** SNIF [Tao et al., KDD'06], in-memory form: one scan assigns each object
  * to the first cluster center within `r/2` (new centers are opened as
  * needed — centers are "randomly chosen" by randomizing the scan order).
  * Objects in the same cluster are mutual neighbors by the triangle
  * inequality, so clusters with more than `k` members are all inliers; the
  * rest count neighbors only against clusters whose center lies within
  * `3r/2` (no neighbor can live farther). Both bounds are widened by the
  * space's rounding slacks, so rounding cannot break either rule. The
  * counting pass fans out through the [[ParRunner]].
  */
object SNIF {
  def run(
      runner: ParRunner,
      space: MetricSpace,
      r: Double,
      k: Int,
      seed: Long = 11L,
  ): DetectionResult = {
    DODQuery.check(r, k)
    val t0 = System.nanoTime()
    val n = space.n
    val rng = new Random(seed)
    val order = Shuffle.range(n, rng)
    // members join a center a little inside r/2, so co-members' computed
    // distances stay within r, and centers are searched a little beyond 3r/2
    val slack = space.roundingSlack
    val absolute = space.absoluteSlack
    val joinR = r / 2 * (1 - slack) - absolute / 2
    val searchR = 1.5 * r * (1 + slack) + absolute

    // sequential cluster formation (order-dependent, as in the paper)
    val centers = mutable.ArrayBuffer.empty[Int]
    val members = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[Int]]
    val clusterOf = new Array[Int](n)
    order.foreach { p =>
      var c = 0
      var assigned = -1
      while (assigned < 0 && c < centers.length) {
        if (space.within(p, centers(c), joinR)) assigned = c
        c += 1
      }
      if (assigned < 0) {
        centers += p; members += mutable.ArrayBuffer.empty[Int]
        assigned = centers.length - 1
      }
      members(assigned) += p
      clusterOf(p) = assigned
    }
    val centerArr = centers.toArray
    val memberArr = members.map(_.toArray).toArray
    val indexBytes = centerArr.length * 12L + n * 4L

    // parallel counting for objects in small clusters
    val pending = (0 until n).filter(p => memberArr(clusterOf(p)).length <= k).toArray
    val out = runner.select(pending, space, (centerArr, memberArr, clusterOf)) {
      case (sp, (cts, mem, cOf), p) =>
        var count = mem(cOf(p)).length - 1 // co-members are neighbors
        var c = 0
        while (count < k && c < cts.length) {
          if (c != cOf(p) && sp.within(p, cts(c), searchR)) {
            val ms = mem(c)
            var i = 0
            while (count < k && i < ms.length) {
              if (sp.within(p, ms(i), r)) count += 1
              i += 1
            }
          }
          c += 1
        }
        count < k
    }
    DetectionResult(out, (System.nanoTime() - t0) / 1000000L, indexBytes)
  }
}

/** DOLPHIN [Angiulli & Fassetti, TKDD'09], in-memory form: a first scan
  * compares each object against an index of previously seen objects,
  * updating partial neighbor counts on both sides and stopping early once
  * an object is proven an inlier (proven inliers are indexed only with a
  * small probability, as in DOLPHIN's `p_inlier`); the surviving indexed
  * objects are candidates, verified in a parallel second scan.
  */
object Dolphin {
  /** Probability that a proven inlier stays in the index (`p_inlier`). */
  val PInlier = 0.05

  def run(
      runner: ParRunner,
      space: MetricSpace,
      r: Double,
      k: Int,
      seed: Long = 13L,
  ): DetectionResult = {
    DODQuery.check(r, k)
    val t0 = System.nanoTime()
    val n = space.n
    val rng = new Random(seed)

    val indexIds = mutable.ArrayBuffer.empty[Int]
    val counts = new Array[Int](n) // partial neighbor counts of indexed objects
    var p = 0
    while (p < n) {
      var cnt = 0
      var i = 0
      while (cnt < k && i < indexIds.length) {
        val q = indexIds(i)
        if (space.within(p, q, r)) { cnt += 1; counts(q) += 1 }
        i += 1
      }
      if (cnt >= k) {
        // proven inlier; keep in the index only with probability PInlier
        if (rng.nextDouble() < PInlier) { indexIds += p; counts(p) = cnt }
      } else { indexIds += p; counts(p) = cnt }
      p += 1
    }
    val indexBytes = indexIds.length * 8L

    val candidates = indexIds.filter(q => counts(q) < k).toArray
    val out = runner.select(candidates, space, ())((sp, _, q) => LinearScanCounter().count(sp, q, r, k, null) < k)
    DetectionResult(out, (System.nanoTime() - t0) / 1000000L, indexBytes)
  }
}
