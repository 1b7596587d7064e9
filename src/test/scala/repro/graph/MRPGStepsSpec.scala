package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import repro.core.{BruteForce, GreedyCounting, LocalRunner, MetricSpace, VectorMetric, VectorSpace}
import scala.collection.mutable

/** Unit tests for the individual MRPG construction steps (§5.2–§5.4). */
class MRPGStepsSpec extends AnyFunSuite {

  private val runner = new LocalRunner(4)

  private def reachableFrom(adj: AdjacencyStore, s: Int): Int = {
    val visited = new java.util.BitSet(adj.n)
    val q = new java.util.ArrayDeque[Integer]()
    visited.set(s); q.add(s)
    var count = 0
    while (!q.isEmpty) {
      val v = q.poll().intValue(); count += 1
      adj.row(v).foreach(u => if (!visited.get(u)) { visited.set(u); q.add(u) })
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
    val store = AdjacencyStore.of(adj)
    val isPivot = Array.tabulate(200)(_ % 17 == 0)
    val res = ConnectSubgraphs.run(space, store, isPivot, new Array[Boolean](200), seed = 3)
    assert(res.linksAdded > 0)
    assert(res.unreached == 0)
    assert(reachableFrom(store, 0) == 200)
  }

  test("ConnectSubgraphs connects many singleton fragments") {
    val space = TestSpaces.clustered(120, 4, VectorMetric.L2, seed = 32)
    val adj = Array.tabulate(120)(v => if (v < 60) Array((v + 1) % 60) else Array.empty[Int])
    val store = AdjacencyStore.of(adj)
    val isPivot = Array.tabulate(120)(_ % 11 == 0)
    val res = ConnectSubgraphs.run(space, store, isPivot, new Array[Boolean](120), seed = 4)
    assert(res.unreached == 0)
    assert(reachableFrom(store, 0) == 120)
  }

  test("ConnectSubgraphs on an already-connected graph only adds reverse links") {
    val space = TestSpaces.clustered(150, 4, VectorMetric.L2, seed = 33)
    val adj = Array.tabulate(150)(v => Array((v + 1) % 150, (v + 2) % 150))
    val store = AdjacencyStore.of(adj)
    ConnectSubgraphs.run(space, store, new Array[Boolean](150), new Array[Boolean](150), seed = 5)
    for (v <- 0 until 150; u <- store.row(v)) assert(store.contains(u, v))
    assert(reachableFrom(store, 7) == 150)
  }

  test("ConnectSubgraphs keeps exact-list vertices' link sets untouched") {
    val space = TestSpaces.clustered(100, 4, VectorMetric.L2, seed = 34)
    val adj = Array.tabulate(100)(v => Array((v + 1) % 100))
    val store = AdjacencyStore.of(adj)
    val isExact = Array.tabulate(100)(_ == 50)
    val before = store.row(50).toSet
    ConnectSubgraphs.run(space, store, new Array[Boolean](100), isExact, seed = 6)
    assert(store.row(50).toSet == before)
  }

  // the greedy ANN walk over an NSW graph's links
  private lazy val walkSpace = TestSpaces.clustered(500, 6, VectorMetric.L2, seed = 91)
  private lazy val nswAdj = {
    val g = NSW.build(walkSpace, f = 6, seed = 9)
    AdjacencyStore.of(Array.tabulate(g.n)(g.row))
  }

  test("greedyAnnSearch never returns a vertex farther than the start") {
    val rng = new scala.util.Random(93)
    for (_ <- 0 until 100) {
      val start = rng.nextInt(walkSpace.n)
      val query = rng.nextInt(walkSpace.n)
      val res = ConnectSubgraphs.greedyAnnSearch(nswAdj, start, query, maxHops = 10)(walkSpace.dist(query, _))
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
        walkSpace.dist(query, ConnectSubgraphs.greedyAnnSearch(nswAdj, s0, query, maxHops = 20)(walkSpace.dist(query, _)))
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
    val store = AdjacencyStore.of(aknn.nbrId)
    ConnectSubgraphs.run(space, store, aknn.isPivot, new Array[Boolean](300), seed = 7)
    val before = (0 until 300).map(store.size).sum
    val res = RemoveDetours.run(space, store, aknn.isPivot, new Array[Boolean](300), 6, runner, seed = 8)
    assert((0 until 300).map(store.size).sum == before + res.linksAdded)
    assert(res.capHits == 0)
    for (v <- 0 until 300) {
      assert(!store.contains(v, v))
      store.row(v).foreach(u => assert(u >= 0 && u < 300))
    }
  }

  test("RemoveDetours reduces greedy-counting false negatives on a detour graph") {
    // chain 0 - 1 - 2 where dist(0,1) > dist(0,2): a textbook detour (§5.3).
    val pts = Array(Array(0.0, 0.0), Array(10.0, 0.0), Array(1.0, 0.0))
    val space = new repro.core.VectorSpace(pts, VectorMetric.L2)
    val store = AdjacencyStore.of(Array(Array(1), Array(0, 2), Array(1)))
    // the single sampled target is seed-dependent; a few seeds cover both
    // endpoints of the detour
    for (sd <- 1 to 6)
      RemoveDetours.run(space, store, Array(true, true, true), new Array[Boolean](3), 2, runner, seed = sd)
    val (offsets, links) = store.toCsr
    val g = ProximityGraph.plain(offsets, links)
    // vertex 2 (dist 1 <= r=2) must now be reachable monotonically from 0
    assert(GreedyCounting.count(space, g, 0, 2.0, 5, new GreedyCounting.Walk) == 1)
  }

  test("RemoveDetours chains are monotonic by construction") {
    val space = TestSpaces.clustered(200, 4, VectorMetric.L2, seed = 36)
    val aknn = NNDescent.build(space,
      NNDescentConfig(K = 5, vpInit = true, skipUnchanged = true, maxIters = 3, seed = 3), runner)
    val store = AdjacencyStore.of(aknn.nbrId)
    // run and simply assert no exception + graph size growth is bounded by O(nK)
    val res = RemoveDetours.run(space, store, aknn.isPivot, new Array[Boolean](200), 5, runner, seed = 10)
    assert(res.linksAdded <= 2L * 200 * 5 * 5)
  }

  test("RemoveDetours evaluates each (target, object) distance once") {
    val (space, isPivot, isExact, rows) = glued
    val connected = AdjacencyStore.of(rows)
    ConnectSubgraphs.run(space, connected, isPivot, isExact, seed = 11)
    val recording = new RecordingSpace(space)
    val res = RemoveDetours.run(recording, connected, isPivot, isExact, 6, runner, seed = 12)
    val pairs = recording.pairs
    assert(res.linksAdded > 0 && pairs.nonEmpty)
    val repeats = pairs.size - pairs.distinct.size
    assert(repeats == 0, s"$repeats of ${pairs.size} evaluations repeat an ordered pair")
  }

  test("Remove-Detours on spaces of different n, interleaved on one thread, equals fresh runs") {
    def setup(n: Int, seed: Int): (MetricSpace, Array[Boolean], Array[Array[Int]]) = {
      val space = TestSpaces.clustered(n, 4, VectorMetric.L2, seed = seed)
      val aknn = NNDescent.build(space,
        NNDescentConfig(K = 5, vpInit = true, skipUnchanged = true, maxIters = 3, seed = seed), runner)
      val store = AdjacencyStore.of(aknn.nbrId)
      ConnectSubgraphs.run(space, store, aknn.isPivot, new Array[Boolean](n), seed = seed)
      (space, aknn.isPivot, rowsOf(store))
    }
    def detour(s: (MetricSpace, Array[Boolean], Array[Array[Int]])): (RemoveDetours.Result, Seq[Seq[Int]]) = {
      val (space, isPivot, rows) = s
      val store = AdjacencyStore.of(rows)
      val res = RemoveDetours.run(space, store, isPivot, new Array[Boolean](rows.length), 5, runner, seed = 13)
      (res, rowsOf(store).map(_.toSeq).toSeq)
    }
    def onFreshThread[A](body: => A): A = {
      var out: Option[A] = None
      val t = new Thread(() => out = Some(body))
      t.start(); t.join()
      out.get
    }
    val (large, small) = (setup(400, 43), setup(150, 44))
    val fresh = Seq(large, small).map(s => onFreshThread(detour(s)))
    val interleaved = Seq(large, small, large, small, large).map(detour)
    assert(interleaved.forall(_._1.linksAdded > 0))
    interleaved.zipWithIndex.foreach { case (got, i) => assert(got == fresh(i % 2), s"run $i") }
  }

  // ---- Remove-Links ------------------------------------------------------
  test("RemoveLinks removes the link between two non-pivots sharing a pivot") {
    // p1=0, p2=1 non-pivots, pivot=2; triangle 0-1-2 (paper's Example 4),
    // plus spare links so the degree guard allows the removal
    val store = AdjacencyStore.of(Array(Array(1, 2, 3), Array(0, 2, 4), Array(0, 1), Array(0), Array(1)))
    val isPivot = Array(false, false, true, false, false)
    val removed = RemoveLinks.run(store, isPivot, new Array[Boolean](5))
    assert(removed == 1)
    assert(!store.contains(0, 1) && !store.contains(1, 0))
    assert(store.contains(0, 2) && store.contains(1, 2)) // pivot links stay
  }

  test("RemoveLinks never removes links to pivots or from exact vertices") {
    val store = AdjacencyStore.of(Array(Array(1, 2, 3), Array(0, 2, 3), Array(0, 1, 3), Array(0, 1, 2)))
    val isPivot = Array(false, false, true, true)
    RemoveLinks.run(store, isPivot, new Array[Boolean](4))
    // pivot-pivot and x-pivot links survive
    assert(store.contains(0, 2) && store.contains(0, 3))
    assert(store.contains(2, 3))
  }

  test("RemoveLinks respects the minimum-degree guard (degree-2 link survives)") {
    // 0 and 1 share pivot 2 but both have only degree 2 — removing (0,1)
    // would drop them to degree 1, so the guard keeps the link.
    val store = AdjacencyStore.of(Array(Array(1, 2), Array(0, 2), Array(0, 1)))
    val isPivot = Array(false, false, true)
    val removed = RemoveLinks.run(store, isPivot, new Array[Boolean](3))
    assert(removed == 0)
    assert(store.contains(0, 1) && store.contains(1, 0))
  }

  test("RemoveLinks keeps detection exact on a full pipeline graph") {
    val space = TestSpaces.clustered(300, 5, VectorMetric.L2, seed = 37, outlierFrac = 0.04)
    val (g, _) = MRPG.build(space, 8, runner, seed = 4, maxIters = 4)
    val res = repro.core.GraphDOD.detectLocal(space, g, 8.0, 8)
    assert(res.outliers.toSeq == BruteForce.outliers(space, 8.0, 8).toSeq)
  }

  // ---- the bounded loops report when they bind -------------------------

  /** `n` random points in the unit square, each linking `deg` distinct
    * random others.
    */
  private def randomGraph(n: Int, deg: Int, seed: Int): (VectorSpace, AdjacencyStore) = {
    val rng = new scala.util.Random(seed)
    val space = new VectorSpace(Array.fill(n)(Array(rng.nextDouble(), rng.nextDouble())), VectorMetric.L2)
    val adj = new AdjacencyStore(n)
    for (v <- 0 until n) while (adj.size(v) < deg) {
      val u = rng.nextInt(n)
      if (u != v) adj.add(v, u)
    }
    (space, adj)
  }

  test("RemoveDetours counts the BFSes its visit cap cuts short") {
    // degree 100: a 3-hop BFS finds over 4,096 vertices within 2 hops, so
    // the cap stops it with vertices still to expand
    val (space, adj) = randomGraph(5000, 100, seed = 41)
    val res = RemoveDetours.run(space, adj, new Array[Boolean](5000), new Array[Boolean](5000), 50, runner, seed = 1)
    assert(res.capHits > 0)
  }

  test("RemoveDetours' cap count skips BFSes left with only hop-limit vertices") {
    // degree 20: at most 421 vertices lie within 2 hops, so where the cap
    // stops a 3-hop BFS, only hop-3 vertices (never expanded) are left
    val (space, adj) = randomGraph(5000, 20, seed = 42)
    val res = RemoveDetours.run(space, adj, new Array[Boolean](5000), new Array[Boolean](5000), 50, runner, seed = 1)
    assert(res.capHits == 0)
  }

  test("MRPG.build reports no cap hit and no unreached vertex on a clustered space") {
    val space = TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 39)
    val (_, stats) = MRPG.build(space, 6, runner, seed = 2, maxIters = 4)
    assert(stats.detourCapHits == 0)
    assert(stats.connectUnreached == 0)
  }

  // ---- the LinkedHashSet overloads (perfbench's step replay) -----------

  /** An MRPG's adjacency as `MRPG.build` glues it, with its pivots and
    * exact-list flags.
    */
  private lazy val glued = {
    val space = TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 38, outlierFrac = 0.03)
    val aknn = NNDescent.build(space,
      NNDescentConfig(K = 6, vpInit = true, skipUnchanged = true, exactListSize = 24, exactCount = 16,
        maxIters = 4, seed = 5), runner)
    val isExact = Array.tabulate(400)(v => aknn.exactLists(v) != null)
    val rows = Array.tabulate(400) { v =>
      (if (isExact(v)) aknn.exactLists(v) else aknn.nbrId(v)).filter(_ != v)
    }
    (space, aknn.isPivot, isExact, rows)
  }

  private def rowsOf(store: AdjacencyStore): Array[Array[Int]] = Array.tabulate(store.n)(store.row)

  private def sets(rows: Array[Array[Int]]): Array[mutable.LinkedHashSet[Int]] =
    rows.map(mutable.LinkedHashSet.from(_))

  private def assertSameRows(sets: Array[mutable.LinkedHashSet[Int]], store: AdjacencyStore): Unit =
    for (v <- sets.indices) {
      assert(sets(v).toSeq == store.row(v).toSeq, s"row $v")
      assert(sets(v).size == store.size(v), s"row $v")
    }

  test("ConnectSubgraphs' LinkedHashSet overload equals its store path") {
    val (space, isPivot, isExact, rows) = glued
    val (viaSets, store) = (sets(rows), AdjacencyStore.of(rows))
    val added = ConnectSubgraphs.run(space, viaSets, isPivot, isExact, seed = 11)
    val res = ConnectSubgraphs.run(space, store, isPivot, isExact, seed = 11)
    assert(added > 0 && added == res.linksAdded)
    assertSameRows(viaSets, store)
  }

  test("RemoveDetours' LinkedHashSet overload equals its store path") {
    val (space, isPivot, isExact, rows) = glued
    val connected = AdjacencyStore.of(rows)
    ConnectSubgraphs.run(space, connected, isPivot, isExact, seed = 11)
    val (viaSets, store) = (sets(rowsOf(connected)), AdjacencyStore.of(rowsOf(connected)))
    val added = RemoveDetours.run(space, viaSets, isPivot, isExact, 6, runner, seed = 12)
    val res = RemoveDetours.run(space, store, isPivot, isExact, 6, runner, seed = 12)
    assert(added > 0 && added == res.linksAdded)
    assertSameRows(viaSets, store)
  }

  test("RemoveLinks' LinkedHashSet overload equals its store path") {
    val (space, isPivot, isExact, rows) = glued
    val detoured = AdjacencyStore.of(rows)
    ConnectSubgraphs.run(space, detoured, isPivot, isExact, seed = 11)
    RemoveDetours.run(space, detoured, isPivot, isExact, 6, runner, seed = 12)
    val (viaSets, store) = (sets(rowsOf(detoured)), AdjacencyStore.of(rowsOf(detoured)))
    val removed = RemoveLinks.run(viaSets, isPivot, isExact)
    assert(removed > 0 && removed == RemoveLinks.run(store, isPivot, isExact))
    assertSameRows(viaSets, store)
  }
}

/** Records every `(i, j)` it evaluates, in call order (`within` goes
  * through `dist`). For sequential runners only.
  */
private final class RecordingSpace(base: MetricSpace) extends MetricSpace {
  val pairs = mutable.ArrayBuffer.empty[(Int, Int)]

  def n: Int = base.n
  def dist(i: Int, j: Int): Double = { pairs += ((i, j)); base.dist(i, j) }
  def roundingSlack: Double = base.roundingSlack
}
