package repro.core

import repro.graph.ProximityGraph

/** Algorithm 1 replayed object by object on one walk: each
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
    val walk = new GreedyCounting.Walk
    var reused = 0L
    var cut = 0
    for (p <- 0 until space.n) {
      val verdict = GraphDOD.filterVerdict(cs, g, p, r, k, walk)
      if (verdict == GraphDOD.DirectOutlier) outliers += p
      if ((verdict == GraphDOD.Candidate || verdict == GraphDOD.Inlier) && walk.cut) cut += 1
      if (verdict == GraphDOD.Candidate) {
        val c = counter.count(cs, p, r, k, if (reuse) walk else null)
        reused += walk.reused
        counts += p -> c
        if (c < k) outliers += p
      }
    }
    Outcome(outliers.result().sorted, counts.result(), cs.evaluations, reused, cut)
  }
}
