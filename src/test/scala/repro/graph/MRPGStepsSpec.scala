package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import repro.core.{BruteForce, GreedyCounting, LocalRunner, VectorMetric}
import scala.collection.mutable

/** Unit tests for the individual MRPG construction steps (§5.2–§5.4). */
class MRPGStepsSpec extends AnyFunSuite {

  private val runner = new LocalRunner(4)

  private def toBuffers(adj: Array[Array[Int]]): Array[mutable.LinkedHashSet[Int]] =
    adj.map(a => mutable.LinkedHashSet.from(a))

  private def reachableFrom(adj: Array[mutable.LinkedHashSet[Int]], s: Int): Int = {
    val visited = new java.util.BitSet(adj.length)
    val q = new java.util.ArrayDeque[Integer]()
    visited.set(s); q.add(s)
    var count = 0
    while (!q.isEmpty) {
      val v = q.poll().intValue(); count += 1
      adj(v).foreach(u => if (!visited.get(u)) { visited.set(u); q.add(u) })
    }
    count
  }

  // ---- Connect-SubGraphs -------------------------------------------------
  test("ConnectSubgraphs connects two artificially disjoint cliques") {
    val space = TestSpaces.clustered(200, 4, VectorMetric.L2, seed = 31)
    // cliques over [0,100) and [100,200) with no cross links
    val adj = Array.tabulate(200) { v =>
      val base = if (v < 100) 0 else 100
      Array.tabulate(5)(i => base + (v + i + 1) % 100).filter(_ != v)
    }
    val buffers = toBuffers(adj)
    val isPivot = Array.tabulate(200)(_ % 17 == 0)
    val added = ConnectSubgraphs.run(space, buffers, isPivot, new Array[Boolean](200), seed = 3)
    assert(added > 0)
    assert(reachableFrom(buffers, 0) == 200)
  }

  test("ConnectSubgraphs connects many singleton fragments") {
    val space = TestSpaces.clustered(120, 4, VectorMetric.L2, seed = 32)
    val adj = Array.tabulate(120)(v => if (v < 60) Array((v + 1) % 60) else Array.empty[Int])
    val buffers = toBuffers(adj)
    val isPivot = Array.tabulate(120)(_ % 11 == 0)
    ConnectSubgraphs.run(space, buffers, isPivot, new Array[Boolean](120), seed = 4)
    assert(reachableFrom(buffers, 0) == 120)
  }

  test("ConnectSubgraphs on an already-connected graph only adds reverse links") {
    val space = TestSpaces.clustered(150, 4, VectorMetric.L2, seed = 33)
    val adj = Array.tabulate(150)(v => Array((v + 1) % 150, (v + 2) % 150))
    val buffers = toBuffers(adj)
    ConnectSubgraphs.run(space, buffers, new Array[Boolean](150), new Array[Boolean](150), seed = 5)
    for (v <- 0 until 150; u <- buffers(v)) assert(buffers(u).contains(v))
    assert(reachableFrom(buffers, 7) == 150)
  }

  test("ConnectSubgraphs keeps exact-list vertices' link sets untouched") {
    val space = TestSpaces.clustered(100, 4, VectorMetric.L2, seed = 34)
    val adj = Array.tabulate(100)(v => Array((v + 1) % 100))
    val buffers = toBuffers(adj)
    val isExact = Array.tabulate(100)(_ == 50)
    val before = buffers(50).toSet
    ConnectSubgraphs.run(space, buffers, new Array[Boolean](100), isExact, seed = 6)
    assert(buffers(50).toSet == before)
  }

  // the greedy ANN walk over an NSW graph's links
  private lazy val walkSpace = TestSpaces.clustered(500, 6, VectorMetric.L2, seed = 91)
  private lazy val nswAdj = toBuffers(NSW.build(walkSpace, f = 6, seed = 9).adj)

  test("greedyAnnSearch never returns a vertex farther than the start") {
    val rng = new scala.util.Random(93)
    for (_ <- 0 until 100) {
      val start = rng.nextInt(walkSpace.n)
      val query = rng.nextInt(walkSpace.n)
      val res = ConnectSubgraphs.greedyAnnSearch(walkSpace, nswAdj, start, query, maxHops = 10)
      assert(walkSpace.dist(query, res) <= walkSpace.dist(query, start) + 1e-9)
    }
  }

  test("multi-start greedyAnnSearch usually lands near the query") {
    // single greedy walks get stuck in local minima by design; Connect-
    // SubGraphs therefore uses several starts — test the same setting
    val rng = new scala.util.Random(94)
    val improvements = (0 until 100).count { _ =>
      val query = rng.nextInt(walkSpace.n)
      val starts = Seq.fill(3)(rng.nextInt(walkSpace.n)).filter(_ != query)
      val best = starts.map { s0 =>
        walkSpace.dist(query, ConnectSubgraphs.greedyAnnSearch(walkSpace, nswAdj, s0, query, maxHops = 20))
      }.min
      val startBest = starts.map(walkSpace.dist(query, _)).min
      best < 0.5 * startBest || best < 10.0 // reached the query's cluster
    }
    assert(improvements >= 60, s"only $improvements/100 multi-start searches got close")
  }

  // ---- Remove-Detours ----------------------------------------------------
  test("RemoveDetours adds links and keeps the graph valid") {
    val space = TestSpaces.clustered(300, 6, VectorMetric.L2, seed = 35)
    val aknn = NNDescent.build(space,
      NNDescentConfig(K = 6, vpInit = true, skipUnchanged = true, maxIters = 4, seed = 2), runner)
    val buffers = toBuffers(aknn.nbrId)
    ConnectSubgraphs.run(space, buffers, aknn.isPivot, new Array[Boolean](300), seed = 7)
    val before = buffers.map(_.size).sum
    val added = RemoveDetours.run(space, buffers, aknn.isPivot, new Array[Boolean](300), 6, runner, seed = 8)
    assert(buffers.map(_.size).sum == before + added)
    for (v <- 0 until 300) {
      assert(!buffers(v).contains(v))
      buffers(v).foreach(u => assert(u >= 0 && u < 300))
    }
  }

  test("RemoveDetours reduces greedy-counting false negatives on a detour graph") {
    // chain 0 - 1 - 2 where dist(0,1) > dist(0,2): a textbook detour (§5.3).
    val pts = Array(Array(0.0, 0.0), Array(10.0, 0.0), Array(1.0, 0.0))
    val space = new repro.core.VectorSpace(pts, VectorMetric.L2)
    val buffers = toBuffers(Array(Array(1), Array(0, 2), Array(1)))
    // the single sampled target is seed-dependent; a few seeds cover both
    // endpoints of the detour
    for (sd <- 1 to 6)
      RemoveDetours.run(space, buffers, Array(true, true, true), new Array[Boolean](3), 2, runner, seed = sd)
    val g = new ProximityGraph(buffers.map(_.toArray), new Array[Boolean](3), null, 0)
    // vertex 2 (dist 1 <= r=2) must now be reachable monotonically from 0
    assert(GreedyCounting.count(space, g, 0, 2.0, 5, usePivotHop = false) == 1)
  }

  test("RemoveDetours chains are monotonic by construction") {
    val space = TestSpaces.clustered(200, 4, VectorMetric.L2, seed = 36)
    val aknn = NNDescent.build(space,
      NNDescentConfig(K = 5, vpInit = true, skipUnchanged = true, maxIters = 3, seed = 3), runner)
    val buffers = toBuffers(aknn.nbrId)
    // run and simply assert no exception + graph size growth is bounded by O(nK)
    val added = RemoveDetours.run(space, buffers, aknn.isPivot, new Array[Boolean](200), 5, runner, seed = 10)
    assert(added <= 2L * 200 * 5 * 5)
  }

  // ---- Remove-Links ------------------------------------------------------
  test("RemoveLinks removes the link between two non-pivots sharing a pivot") {
    // p1=0, p2=1 non-pivots, pivot=2; triangle 0-1-2 (paper's Example 4),
    // plus spare links so the degree guard allows the removal
    val buffers = toBuffers(Array(Array(1, 2, 3), Array(0, 2, 4), Array(0, 1), Array(0), Array(1)))
    val isPivot = Array(false, false, true, false, false)
    val removed = RemoveLinks.run(buffers, isPivot, new Array[Boolean](5))
    assert(removed == 1)
    assert(!buffers(0).contains(1) && !buffers(1).contains(0))
    assert(buffers(0).contains(2) && buffers(1).contains(2)) // pivot links stay
  }

  test("RemoveLinks never removes links to pivots or from exact vertices") {
    val buffers = toBuffers(Array(Array(1, 2, 3), Array(0, 2, 3), Array(0, 1, 3), Array(0, 1, 2)))
    val isPivot = Array(false, false, true, true)
    RemoveLinks.run(buffers, isPivot, new Array[Boolean](4))
    // pivot-pivot and x-pivot links survive
    assert(buffers(0).contains(2) && buffers(0).contains(3))
    assert(buffers(2).contains(3))
  }

  test("RemoveLinks respects the minimum-degree guard (degree-2 link survives)") {
    // 0 and 1 share pivot 2 but both have only degree 2 — removing (0,1)
    // would drop them to degree 1, so the guard keeps the link.
    val buffers = toBuffers(Array(Array(1, 2), Array(0, 2), Array(0, 1)))
    val isPivot = Array(false, false, true)
    val removed = RemoveLinks.run(buffers, isPivot, new Array[Boolean](3))
    assert(removed == 0)
    assert(buffers(0).contains(1) && buffers(1).contains(0))
  }

  test("RemoveLinks keeps detection exact on a full pipeline graph") {
    val space = TestSpaces.clustered(300, 5, VectorMetric.L2, seed = 37, outlierFrac = 0.04)
    val (g, _) = MRPG.build(space, 8, runner, seed = 4, maxIters = 4)
    val res = repro.core.GraphDOD.detectLocal(space, g, 8.0, 8)
    assert(res.outliers.toSeq == BruteForce.outliers(space, 8.0, 8).toSeq)
  }
}
