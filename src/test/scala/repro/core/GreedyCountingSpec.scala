package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import repro.graph.ProximityGraph
import scala.util.Random

/** Algorithm 2 behavior: Lemma 1 (no over-counting), early termination,
  * pivot hops, exact-list decisions.
  */
class GreedyCountingSpec extends AnyFunSuite {

  private def randomGraph(n: Int, degree: Int, seed: Long): ProximityGraph = {
    val rng = new Random(seed)
    ProximityGraph.plain(Array.tabulate(n) { v =>
      Array.fill(degree)(rng.nextInt(n)).distinct.filter(_ != v)
    })
  }

  private def completeGraph(n: Int): ProximityGraph =
    ProximityGraph.plain(Array.tabulate(n)(v => Array.range(0, n).filter(_ != v)))

  // ---- Lemma 1: greedy count <= true count, over random graphs -----------
  for (s <- TestSpaces.scenarios()) {
    test(s"${s.name}: Lemma 1 — greedy count never exceeds the true count") {
      val g = randomGraph(s.space.n, 8, seed = 77)
      val rng = new Random(78)
      for (_ <- 0 until 100) {
        val p = rng.nextInt(s.space.n)
        val greedy = GreedyCounting.count(s.space, g, p, s.r, s.k)
        val truth = BruteForce.countNeighbors(s.space, p, s.r, s.k)
        assert(greedy <= truth, s"object $p")
      }
    }

    test(s"${s.name}: on the complete graph greedy count equals the capped true count") {
      val g = completeGraph(s.space.n)
      val rng = new Random(79)
      for (_ <- 0 until 50) {
        val p = rng.nextInt(s.space.n)
        val greedy = GreedyCounting.count(s.space, g, p, s.r, s.k)
        val truth = BruteForce.countNeighbors(s.space, p, s.r, s.k)
        assert(greedy == truth, s"object $p")
      }
    }
  }

  test("count is capped at k") {
    val space = TestSpaces.clustered(300, 4, VectorMetric.L2, seed = 80)
    val g = completeGraph(space.n)
    for (k <- Seq(1, 3, 10)) {
      for (p <- 0 until 50) {
        assert(GreedyCounting.count(space, g, p, 1000.0, k) == math.min(k, space.n - 1))
      }
    }
  }

  test("isolated vertex counts zero regardless of true neighbors") {
    val space = TestSpaces.clustered(100, 4, VectorMetric.L2, seed = 81)
    val adj = Array.tabulate(100)(v => if (v == 0) Array.empty[Int] else Array((v + 1) % 100).filter(_ != 0))
    val g = ProximityGraph.plain(adj)
    assert(GreedyCounting.count(space, g, 0, 1000.0, 10) == 0)
  }

  test("pivot hop reaches neighbors across a far bridge vertex") {
    // 0 -- far pivot 1 -- 2, with dist(0,2) <= r but dist(0,1) > r: on the
    // same links, vertex 2 is unreachable unless 1 is a pivot.
    val pts = Array(
      Array(0.0, 0.0), // 0
      Array(50.0, 0.0), // 1 (pivot, far)
      Array(1.0, 0.0), // 2 (close to 0, only linked via 1)
    )
    val space = new VectorSpace(pts, VectorMetric.L2)
    val adj = Array(Array(1), Array(0, 2), Array(1))
    val withoutPivot = new ProximityGraph(adj, Array(false, false, false), null, 0)
    val withPivot = new ProximityGraph(adj, Array(false, true, false), null, 0)
    assert(GreedyCounting.count(space, withoutPivot, 0, 2.0, 5) == 0)
    assert(GreedyCounting.count(space, withPivot, 0, 2.0, 5) == 1)
  }

  test("non-pivot far vertex is not expanded even with pivot hops on") {
    val pts = Array(Array(0.0, 0.0), Array(50.0, 0.0), Array(1.0, 0.0))
    val space = new VectorSpace(pts, VectorMetric.L2)
    val adj = Array(Array(1), Array(0, 2), Array(1))
    val g = new ProximityGraph(adj, Array(false, false, false), null, 0)
    assert(GreedyCounting.count(space, g, 0, 2.0, 5) == 0)
  }

  test("each vertex's distance is computed at most once (visited marking)") {
    // a counting space that records distance evaluations
    val calls = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    val base = TestSpaces.clustered(200, 4, VectorMetric.L2, seed = 82)
    val space = new MetricSpace {
      def n = base.n
      def dist(i: Int, j: Int) = { calls += ((i, j)); base.dist(i, j) }
      def roundingSlack = base.roundingSlack
    }
    val g = randomGraph(200, 6, seed = 83)
    GreedyCounting.count(space, g, 5, 8.0, 1000)
    assert(calls.map(_._2).distinct.length == calls.length, "a vertex was evaluated twice")
  }

  /** Algorithm 2 over a fresh visited set and queue per call. */
  private def referenceCount(space: MetricSpace, g: ProximityGraph, p: Int, r: Double, k: Int): Int = {
    val visited = new java.util.BitSet(space.n)
    val queue = scala.collection.mutable.Queue(p)
    visited.set(p)
    var count = 0
    while (queue.nonEmpty && count < k) {
      val v = queue.dequeue()
      for (w <- g.adj(v) if count < k && !visited.get(w)) {
        visited.set(w)
        if (space.dist(p, w) <= r) { count += 1; queue.enqueue(w) }
        else if (g.isPivot(w)) queue.enqueue(w)
      }
    }
    count
  }

  test("counts on spaces of different n, interleaved on one thread, equal a plain BFS") {
    val rng = new Random(87)
    val cases = Seq(
      (TestSpaces.clustered(300, 4, VectorMetric.L2, seed = 88), 6.0),
      (TestSpaces.clustered(40, 3, VectorMetric.L1, seed = 89), 20.0),
      (TestSpaces.strings(150, seed = 90), 4.0),
      (TestSpaces.clustered(700, 5, VectorMetric.L2, seed = 91), 8.0),
    ).zipWithIndex.map { case ((space, r), i) =>
      val plain = randomGraph(space.n, 5, seed = 92 + i)
      val isPivot = Array.fill(space.n)(rng.nextInt(8) == 0)
      (space, plain, new ProximityGraph(plain.adj, isPivot, null, 0), r)
    }
    for (round <- 0 until 30; (space, plain, pivoted, r) <- cases) {
      val p = rng.nextInt(space.n)
      val k = 1 + rng.nextInt(40)
      for ((g, hop) <- Seq((plain, false), (pivoted, true))) {
        assert(GreedyCounting.count(space, g, p, r, k) == referenceCount(space, g, p, r, k),
          s"round $round n=${space.n} p=$p k=$k hop=$hop")
      }
    }
  }

  // ---- exact-list direct decision (§5.5) ---------------------------------
  test("countExactList equals capped true count when the list is the true K'-NN") {
    val space = TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 84)
    val rng = new Random(85)
    for (_ <- 0 until 40) {
      val p = rng.nextInt(space.n)
      val kPrime = 40
      val list = BruteForce.knn(space, p, kPrime)
      for (k <- Seq(3, 10, 25); r <- Seq(4.0, 9.0, 15.0)) {
        val got = GreedyCounting.countExactList(space, list, p, r, k)
        val truth = BruteForce.countNeighbors(space, p, r, k)
        // exact in both directions while k <= K'
        assert((got < k) == (truth < k), s"p=$p k=$k r=$r got=$got truth=$truth")
        assert(got == math.min(truth, k))
      }
    }
  }

  test("countExactList on an empty list returns zero") {
    val space = TestSpaces.clustered(50, 4, VectorMetric.L2, seed = 86)
    assert(GreedyCounting.countExactList(space, Array.empty, 0, 10.0, 5) == 0)
  }
}
