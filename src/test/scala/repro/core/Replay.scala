package repro.core

import repro.graph.ProximityGraph

/** Algorithm 1 replayed object by object on the calling thread: each
  * object's [[GraphDOD.filterVerdict]], then a candidate's exact count,
  * with or without reading the verdicts its walk left.
  */
private[core] object Replay {

  /** The replay's outliers (sorted), each candidate's `k`-capped count, its
    * distance evaluations, the walk verdicts its counts read and the walks
    * Greedy-Counting's bound cut.
    */
  final case class Outcome(outliers: Seq[Int], counts: Map[Int, Int], evaluations: Long, reused: Long, cut: Int)

  def apply(space: MetricSpace, g: ProximityGraph, r: Double, k: Int, counter: ExactCounter,
      reuse: Boolean): Outcome = {
    val cs = new CountingSpace(space)
    val outliers = Seq.newBuilder[Int]
    val counts = Map.newBuilder[Int, Int]
    var reused = 0L
    var cut = 0
    for (p <- 0 until space.n) {
      val verdict = GraphDOD.filterVerdict(cs, g, p, r, k)
      if (verdict == GraphDOD.DirectOutlier) outliers += p
      if ((verdict == GraphDOD.Candidate || verdict == GraphDOD.Inlier) && GreedyCounting.walkFrom(cs, p, r).cut) cut += 1
      if (verdict == GraphDOD.Candidate) {
        val c =
          if (reuse) {
            val walk = GreedyCounting.walkFrom(cs, p, r)
            val before = walk.reused
            val c = counter.count(cs, p, r, k, walk)
            reused += walk.reused - before
            c
          } else counter.count(cs, p, r, k)
        counts += p -> c
        if (c < k) outliers += p
      }
    }
    Outcome(outliers.result().sorted, counts.result(), cs.evaluations, reused, cut)
  }
}
