package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import repro.core.{BruteForce, GreedyCounting, LocalRunner, VectorMetric}

/** Quantitative reachability: the mechanism behind Table 7. MRPG's pipeline
  * (undirection + connectivity + monotonic paths + pivot hops) must let
  * Greedy-Counting see more of each object's true neighborhood than the raw
  * directed AKNN graph does.
  */
class ReachabilitySpec extends AnyFunSuite {

  private val runner = new LocalRunner(4)

  // a space dominated by sparse mini-clusters — the hard case for reachability
  private lazy val space = {
    val a = TestSpaces.clustered(500, 8, VectorMetric.L2, nClusters = 3,
      sigma = 2.0, outlierFrac = 0.02, seed = 171)
    val b = TestSpaces.clustered(300, 8, VectorMetric.L2, nClusters = 12,
      sigma = 4.5, outlierFrac = 0.0, seed = 172)
    new repro.core.VectorSpace(a.points ++ b.points, VectorMetric.L2)
  }
  private val r = 11.0
  private val k = 1000 // no early stop: measure full reachability
  private val walk = new GreedyCounting.Walk

  /** Mean fraction of true r-neighbors that Greedy-Counting reaches. */
  private def coverage(g: ProximityGraph): Double = {
    val rng = new scala.util.Random(173)
    val samples = (0 until 150).map(_ => rng.nextInt(space.n)).distinct
    val fracs = samples.flatMap { p =>
      val truth = BruteForce.countNeighbors(space, p, r, Int.MaxValue)
      if (truth == 0) None
      else Some(GreedyCounting.count(space, g, p, r, k, walk).toDouble / truth)
    }
    fracs.sum / fracs.size
  }

  private lazy val kgraph = KGraphBuilder.build(space, 8, runner, seed = 7, maxIters = 5)
  private lazy val (mrpg, _) = MRPG.build(space, 8, runner, seed = 7, maxIters = 5)

  test("greedy counts never exceed the true neighbor count (both graphs)") {
    val rng = new scala.util.Random(174)
    for (_ <- 0 until 60) {
      val p = rng.nextInt(space.n)
      val truth = BruteForce.countNeighbors(space, p, r, Int.MaxValue)
      assert(GreedyCounting.count(space, kgraph, p, r, k, walk) <= truth)
      assert(GreedyCounting.count(space, mrpg, p, r, k, walk) <= truth)
    }
  }

  test("MRPG reaches at least as much of the neighborhood as the raw AKNN graph") {
    val cKGraph = coverage(kgraph)
    val cMRPG = coverage(mrpg)
    info(f"coverage: KGraph $cKGraph%.3f vs MRPG $cMRPG%.3f")
    assert(cMRPG >= cKGraph - 0.01)
    assert(cMRPG >= 0.9, f"MRPG coverage only $cMRPG%.3f")
  }

  test("each MRPG pipeline step keeps coverage monotone-ish (no step destroys reachability)") {
    // build MRPG step by step and ensure the final graph is at least as
    // reachable as the plain undirected AKNN graph
    val cfg = NNDescentConfig(K = 8, vpInit = true, skipUnchanged = true, maxIters = 5, seed = 7)
    val aknn = NNDescent.build(space, cfg, runner)
    val undirected = {
      val adj = new AdjacencyStore(space.n)
      for (v <- 0 until space.n; u <- aknn.nbrId(v) if u != v) { adj.add(v, u); adj.add(u, v) }
      val (offsets, links) = adj.toCsr
      new ProximityGraph(offsets, links, aknn.isPivot, null, 0, 0)
    }
    val cUndirected = coverage(undirected)
    val cFull = coverage(mrpg)
    info(f"coverage: undirected AKNN $cUndirected%.3f vs full MRPG $cFull%.3f")
    assert(cFull >= cUndirected - 0.03) // Remove-Links may cost a whisker; detours must pay it back
  }

  test("pivot hops strictly help on the MRPG graph") {
    val without = coverage(
      new ProximityGraph(mrpg.offsets, mrpg.links, new Array[Boolean](space.n), mrpg.isExact, mrpg.exactLen, mrpg.exactK))
    val withHops = coverage(mrpg)
    info(f"coverage: no-hops $without%.3f vs pivot-hops $withHops%.3f")
    assert(withHops >= without)
  }
}
