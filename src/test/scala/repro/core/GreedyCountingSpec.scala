package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import repro.graph.{KGraphBuilder, NSW, ProximityGraph}
import scala.util.Random

/** Algorithm 2 behavior: Lemma 1 (no over-counting), early termination,
  * pivot hops and their bound, exact-list decisions.
  */
class GreedyCountingSpec extends AnyFunSuite {

  /** The walk every count here runs on, over spaces of any n. */
  private val walk = new GreedyCounting.Walk

  private def randomGraph(n: Int, degree: Int, seed: Long): ProximityGraph = {
    val rng = new Random(seed)
    ProximityGraph.plain(Array.tabulate(n) { v =>
      Array.fill(degree)(rng.nextInt(n)).distinct.filter(_ != v)
    })
  }

  /** `randomGraph` with about one vertex in eight a pivot. */
  private def pivotedGraph(n: Int, degree: Int, seed: Long): ProximityGraph = {
    val rng = new Random(seed + 1)
    withPivots(randomGraph(n, degree, seed), Array.fill(n)(rng.nextInt(8) == 0))
  }

  /** `g`'s links with `isPivot` for pivots. */
  private def withPivots(g: ProximityGraph, isPivot: Array[Boolean]): ProximityGraph =
    new ProximityGraph(g.offsets, g.links, isPivot, null, 0, 0)

  private def completeGraph(n: Int): ProximityGraph =
    ProximityGraph.plain(Array.tabulate(n)(v => Array.range(0, n).filter(_ != v)))

  // ---- Lemma 1: greedy count <= true count, over random graphs -----------
  for (s <- TestSpaces.scenarios()) {
    test(s"${s.name}: Lemma 1 — greedy count never exceeds the true count") {
      val g = randomGraph(s.space.n, 8, seed = 77)
      val rng = new Random(78)
      for (_ <- 0 until 100) {
        val p = rng.nextInt(s.space.n)
        val greedy = GreedyCounting.count(s.space, g, p, s.r, s.k, walk)
        val truth = BruteForce.countNeighbors(s.space, p, s.r, s.k)
        assert(greedy <= truth, s"object $p")
      }
    }

    test(s"${s.name}: Lemma 1 holds on random graphs with pivots, bound and all") {
      val g = pivotedGraph(s.space.n, 8, seed = 76)
      val rng = new Random(75)
      for (_ <- 0 until 100) {
        val p = rng.nextInt(s.space.n)
        val greedy = GreedyCounting.count(s.space, g, p, s.r, s.k, walk)
        assert(greedy <= BruteForce.countNeighbors(s.space, p, s.r, s.k), s"object $p")
        // the bound only leaves pivots unexpanded, so it never counts more
        // than Algorithm 2 as the paper writes it
        assert(greedy <= referenceCount(s.space, g, p, s.r, s.k, bounded = false), s"object $p")
      }
    }

    test(s"${s.name}: on the complete graph greedy count equals the capped true count") {
      val g = completeGraph(s.space.n)
      val rng = new Random(79)
      for (_ <- 0 until 50) {
        val p = rng.nextInt(s.space.n)
        val greedy = GreedyCounting.count(s.space, g, p, s.r, s.k, walk)
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
        assert(GreedyCounting.count(space, g, p, 1000.0, k, walk) == math.min(k, space.n - 1))
      }
    }
  }

  test("isolated vertex counts zero regardless of true neighbors") {
    val space = TestSpaces.clustered(100, 4, VectorMetric.L2, seed = 81)
    val adj = Array.tabulate(100)(v => if (v == 0) Array.empty[Int] else Array((v + 1) % 100).filter(_ != 0))
    val g = ProximityGraph.plain(adj)
    assert(GreedyCounting.count(space, g, 0, 1000.0, 10, walk) == 0)
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
    val withoutPivot = ProximityGraph.plain(adj)
    val withPivot = withPivots(withoutPivot, Array(false, true, false))
    assert(GreedyCounting.count(space, withoutPivot, 0, 2.0, 5, walk) == 0)
    assert(GreedyCounting.count(space, withPivot, 0, 2.0, 5, walk) == 1)
  }

  test("non-pivot far vertex is not expanded even with pivot hops on") {
    val pts = Array(Array(0.0, 0.0), Array(50.0, 0.0), Array(1.0, 0.0))
    val space = new VectorSpace(pts, VectorMetric.L2)
    val adj = Array(Array(1), Array(0, 2), Array(1))
    val g = ProximityGraph.plain(adj)
    assert(GreedyCounting.count(space, g, 0, 2.0, 5, walk) == 0)
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
    GreedyCounting.count(space, g, 5, 8.0, 1000, walk)
    assert(calls.map(_._2).distinct.length == calls.length, "a vertex was evaluated twice")
  }

  /** Algorithm 2 over a fresh visited set and queue per call; `bounded`
    * passes through a pivot outside `r` only while fewer than `p`'s row
    * length of the vertices tested before it since the latest hit were
    * outside `r`.
    */
  private def referenceCount(space: MetricSpace, g: ProximityGraph, p: Int, r: Double, k: Int,
      bounded: Boolean = true): Int = {
    val visited = new java.util.BitSet(space.n)
    val queue = scala.collection.mutable.Queue(p)
    visited.set(p)
    var count = 0
    var miss = 0
    while (queue.nonEmpty && count < k) {
      val v = queue.dequeue()
      for (w <- g.row(v) if count < k && !visited.get(w)) {
        visited.set(w)
        if (space.dist(p, w) <= r) { count += 1; miss = 0; queue.enqueue(w) }
        else {
          if (g.isPivot(w) && (!bounded || miss < g.degree(p))) queue.enqueue(w)
          miss += 1
        }
      }
    }
    count
  }

  /** BFS counting that expands only vertices within `r`. */
  private def plainBfsCount(space: MetricSpace, g: ProximityGraph, p: Int, r: Double, k: Int): Int = {
    val visited = new java.util.BitSet(space.n)
    val queue = scala.collection.mutable.Queue(p)
    visited.set(p)
    var count = 0
    while (queue.nonEmpty && count < k) {
      for (w <- g.row(queue.dequeue()) if count < k && !visited.get(w)) {
        visited.set(w)
        if (space.dist(p, w) <= r) { count += 1; queue.enqueue(w) }
      }
    }
    count
  }

  test("on graphs without pivots the count is plain BFS counting, and no walk is cut") {
    val runner = new LocalRunner(2)
    val rng = new Random(93)
    for (s <- TestSpaces.scenarios(seed = 94).take(3)) {
      val graphs = Seq(
        "random" -> randomGraph(s.space.n, 6, seed = 95),
        "NSW" -> NSW.build(s.space, f = 4, seed = 96),
        "KGraph" -> KGraphBuilder.build(s.space, 8, runner, seed = 97, maxIters = 3),
      )
      for ((name, g) <- graphs; _ <- 0 until 60) {
        assert(!g.isPivot.contains(true), name)
        val p = rng.nextInt(s.space.n)
        val k = 1 + rng.nextInt(3 * s.k)
        assert(GreedyCounting.count(s.space, g, p, s.r, k, walk) == plainBfsCount(s.space, g, p, s.r, k),
          s"${s.name} $name p=$p k=$k")
        assert(!walk.cut, s"${s.name} $name p=$p")
      }
    }
  }

  /** Source 0 at the origin with `near` neighbours within r = 1 and one far
    * pivot that starts a path of `chain` vertices ending at a target within
    * r: each vertex on the path is a far pivot, except those at the
    * positions in `hits`, which lie within r. Returns (space, graph, target).
    */
  private def chainCase(near: Int, chain: Int, hits: Set[Int] = Set.empty): (MetricSpace, ProximityGraph, Int) = {
    val pathIds = (1 + near until 1 + near + chain).toArray
    val target = 1 + near + chain
    val pts = Array.tabulate(target + 1) { v =>
      if (v == 0) 0.0
      else if (v <= near) 0.1 * v
      else if (v == target || hits(v - near - 1)) 0.5
      else 100.0 + v
    }.map(x => Array(x, 0.0))
    val adj = Array.tabulate(target + 1) { v =>
      if (v == 0) Array.range(1, near + 1) :+ pathIds(0)
      else if (v <= near) Array(0)
      else if (v == target) Array(pathIds.last)
      else {
        val i = v - near - 1
        Array(if (i == 0) 0 else pathIds(i - 1), if (i == chain - 1) target else pathIds(i + 1))
      }
    }
    val isPivot = Array.tabulate(target + 1)(v => v > near && v < target)
    (new VectorSpace(pts, VectorMetric.L2), withPivots(ProximityGraph.plain(adj), isPivot), target)
  }

  test("a chain of far pivots longer than the source's row stops being expanded") {
    // the source's row holds 3 near vertices and the chain's head: 4 links
    for (chain <- 1 to 8) {
      val (space, g, target) = chainCase(near = 3, chain = chain)
      assert(g.degree(0) == 4)
      val got = GreedyCounting.count(space, g, 0, 1.0, 100, walk)
      // the j-th far pivot on the chain follows j - 1 misses in a row:
      // expanded while j - 1 < 4, so the target is reached iff chain <= 4
      if (chain <= 4) {
        assert(got == 4 && walk.decided(target) && !walk.cut, s"chain $chain")
      } else {
        assert(got == 3 && !walk.decided(target) && walk.cut, s"chain $chain")
        // the fifth is tested, and the sixth is not
        assert(walk.decided(g.row(0).last + 4) && !walk.decided(g.row(0).last + 5), s"chain $chain")
      }
      assert(got == referenceCount(space, g, 0, 1.0, 100), s"chain $chain")
      // Algorithm 2 as the paper writes it reaches the target on any chain
      assert(referenceCount(space, g, 0, 1.0, 100, bounded = false) == 4, s"chain $chain")
    }
  }

  test("a hit resets the run of misses") {
    // a path of nine far pivots is cut at the fifth (row length 4) ...
    val (space, g, target) = chainCase(near = 3, chain = 9)
    assert(GreedyCounting.count(space, g, 0, 1.0, 100, walk) == 3)
    assert(!walk.decided(target))
    // ... but with the fifth vertex on the path within r, the walk passes
    // four far pivots, hits, and passes four more to the target
    val (space2, g2, target2) = chainCase(near = 3, chain = 9, hits = Set(4))
    assert(GreedyCounting.count(space2, g2, 0, 1.0, 100, walk) == 5)
    assert(walk.decided(target2) && walk.inRange(target2) && !walk.cut)
    // a hit second on the path leaves five far pivots after it: cut again
    val (space3, g3, target3) = chainCase(near = 3, chain = 7, hits = Set(1))
    assert(GreedyCounting.count(space3, g3, 0, 1.0, 100, walk) == 4)
    assert(!walk.decided(target3) && walk.cut)
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
      (space, plain, withPivots(plain, isPivot), r)
    }
    for (round <- 0 until 30; (space, plain, pivoted, r) <- cases) {
      val p = rng.nextInt(space.n)
      val k = 1 + rng.nextInt(40)
      assert(GreedyCounting.count(space, plain, p, r, k, walk) == plainBfsCount(space, plain, p, r, k),
        s"round $round n=${space.n} p=$p k=$k plain")
      assert(GreedyCounting.count(space, pivoted, p, r, k, walk) == referenceCount(space, pivoted, p, r, k),
        s"round $round n=${space.n} p=$p k=$k pivoted")
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
        val got = GreedyCounting.countExactList(space, list, 0, list.length, p, r, k)
        val truth = BruteForce.countNeighbors(space, p, r, k)
        // exact in both directions while k <= K'
        assert((got < k) == (truth < k), s"p=$p k=$k r=$r got=$got truth=$truth")
        assert(got == math.min(truth, k))
      }
    }
  }

  test("countExactList on an empty list returns zero") {
    val space = TestSpaces.clustered(50, 4, VectorMetric.L2, seed = 86)
    assert(GreedyCounting.countExactList(space, Array.empty, 0, 0, 0, 10.0, 5) == 0)
  }
}
