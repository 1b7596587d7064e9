package repro.core

import repro.{SparkSpec, TestSpaces}
import repro.data.Datasets
import repro.graph.{MRPG, ProximityGraph}

/** Verification reads the verdicts of the candidate's Greedy-Counting walk:
  * the same counts and outliers as a verifier that evaluates every pair
  * again, exactly `reusedVerdicts` fewer evaluations, no verdict read from
  * another walk, a walk's verdicts kept while another walk is filled, and
  * none left over from before the walk stamp's wrap.
  */
class VerdictReuseSpec extends SparkSpec {

  private val local = new LocalRunner(4)

  test("on all 7 specs (scale 0.05), reading the walks' verdicts changes no count, only the evaluations") {
    val spark4 = new SparkRunner(spark, 4)
    for (spec <- Datasets.all) {
      val base = spec.space(0.05)
      val (g, _) = MRPG.build(base, spec.graphK, local, seed = spec.seed)
      val counters = Seq(LinearScanCounter(), VPTreeCounter(VPTree.build(base, capacity = 32, seed = spec.seed)))
      var reused = 0L
      // the spec's k, and a k past the exact lists, where every object walks
      for (rf <- Seq(0.8, 1.0, 1.25); k <- Seq(spec.k, g.exactK + 1); counter <- counters) {
        val r = spec.r * rf
        val at = s"${spec.name} r=$r k=$k $counter"
        val plain = Replay(base, g, r, k, counter, reuse = false)
        val memo = Replay(base, g, r, k, counter, reuse = true)
        assert(plain.outliers == BruteForce.outliers(base, r, k).toSeq, at)
        assert(memo.counts == plain.counts, at)
        assert(memo.outliers == plain.outliers, at)
        assert(memo.evaluations + memo.reused == plain.evaluations, at)
        reused += memo.reused
        for (runner <- Seq(local, spark4)) {
          val res = GraphDOD.run(runner, base, g, r, k, counter)
          val label = s"$at ${runner.getClass.getSimpleName}"
          assert(res.outliers.toSeq == plain.outliers, label)
          assert(res.candidates == plain.counts.size, label)
          assert(res.evaluations + res.reusedVerdicts == plain.evaluations, label)
          assert(res.reusedVerdicts == memo.reused, label)
        }
      }
      assert(reused > 0, s"${spec.name}: no verdict was read")
    }
  }

  private lazy val scenario = TestSpaces.scenarios().head

  private def completeGraph(n: Int): ProximityGraph =
    ProximityGraph.plain(Array.tabulate(n)(v => Array.range(0, n).filter(_ != v)))

  test("a walk is read only for its own source, radius and space") {
    val s = scenario
    val g = completeGraph(s.space.n)
    val tree = VPTree.build(s.space, 16, seed = 3)
    val walk = new GreedyCounting.Walk
    GreedyCounting.count(s.space, g, 0, s.r, s.k, walk)
    for (counter <- Seq(LinearScanCounter(), VPTreeCounter(tree))) {
      assert(counter.count(s.space, 0, s.r, s.k, walk) == counter.count(s.space, 0, s.r, s.k, null), counter)
      assertThrows[IllegalArgumentException](counter.count(s.space, 1, s.r, s.k, walk))
      assertThrows[IllegalArgumentException](counter.count(s.space, 0, s.r / 2, s.k, walk))
      assertThrows[IllegalArgumentException](counter.count(s.space, 0, s.r * 2, s.k, walk))
      assertThrows[IllegalArgumentException](counter.count(new CountingSpace(s.space), 0, s.r, s.k, walk))
    }
    // a later count into the same walk makes its earlier verdicts stale
    GreedyCounting.count(s.space, g, 1, s.r, s.k, walk)
    for (counter <- Seq(LinearScanCounter(), VPTreeCounter(tree)))
      assertThrows[IllegalArgumentException](counter.count(s.space, 0, s.r, s.k, walk))
  }

  test("two walks held at once: verifying p after q's walk counts and reads as back to back") {
    for (s <- TestSpaces.scenarios().take(3)) {
      val cs = new CountingSpace(s.space)
      val (mrpg, _) = MRPG.build(s.space, 8, local, seed = 5, maxIters = 4)
      val g = new ProximityGraph(mrpg.adj, mrpg.isPivot, mrpg.exactLists, 0) // every object walks
      val counters = Seq(LinearScanCounter(), VPTreeCounter(VPTree.build(s.space, 16, seed = 3)))
      val walkA = new GreedyCounting.Walk
      val walkB = new GreedyCounting.Walk
      val candidates = (0 until s.space.n).filter(p => GraphDOD.filterVerdict(cs, g, p, s.r, s.k, walkA) == GraphDOD.Candidate)
      assert(candidates.size >= 2, s.name)
      /** The exact count of `p` from `walk`, its evaluations and the verdicts it read. */
      def verify(counter: ExactCounter, p: Int, walk: GreedyCounting.Walk): (Int, Long, Long) = {
        val e0 = cs.evaluations
        val c = counter.count(cs, p, s.r, s.k, walk)
        (c, cs.evaluations - e0, walk.reused)
      }
      for (counter <- counters; (p, q) <- candidates.zip(candidates.tail :+ candidates.head)) {
        val at = s"${s.name} $counter p=$p q=$q"
        GraphDOD.filterVerdict(cs, g, p, s.r, s.k, walkA)
        val backToBack = verify(counter, p, walkA)
        assert(backToBack._1 == BruteForce.countNeighbors(s.space, p, s.r, s.k), at)
        GraphDOD.filterVerdict(cs, g, p, s.r, s.k, walkA)
        assert(walkA.reused == 0, s"$at: a new count resets the verdicts read")
        GraphDOD.filterVerdict(cs, g, q, s.r, s.k, walkB)
        assert(verify(counter, p, walkA) == backToBack, at)
        GraphDOD.filterVerdict(cs, g, q, s.r, s.k, walkA)
        assert(verify(counter, q, walkB) == verify(counter, q, walkA), at)
      }
    }
  }

  test("the walk stamp's wrap leaves no stale in-range verdict") {
    val s = scenario
    val n = s.space.n
    val g = completeGraph(n)
    val tree = VPTree.build(s.space, 16, seed = 3)
    val q = 0
    val walk = new GreedyCounting.Walk
    def assertVerdictsExact(r: Double, label: String): Unit = {
      assert(walk.isFrom(s.space, q, r), label)
      for (v <- 0 until n if v != q) {
        assert(walk.decided(v), s"$label: vertex $v")
        assert(walk.inRange(v) == s.space.within(q, v, r), s"$label: vertex $v")
      }
      val truth = BruteForce.countNeighbors(s.space, q, r, n)
      for (counter <- Seq(LinearScanCounter(), VPTreeCounter(tree)))
        assert(counter.count(s.space, q, r, n, walk) == truth, s"$label: $counter")
    }
    // stamp 1 on the fresh walk: every vertex is within the huge radius
    GreedyCounting.count(s.space, g, q, 1e9, n, walk)
    assertVerdictsExact(1e9, "stamp 1")
    // the last stamp before the wrap, at a radius that leaves stamp 1's
    // in-range marks on the vertices outside it
    walk.stamp = Int.MaxValue - 1
    val inRange = GreedyCounting.count(s.space, g, q, s.r, n, walk)
    assert(inRange == BruteForce.countNeighbors(s.space, q, s.r, n))
    assert(inRange < n - 1, "the radius must leave some vertex out")
    assertVerdictsExact(s.r, "stamp Int.MaxValue")
    // the wrap back to stamp 1
    assert(GreedyCounting.count(s.space, g, q, s.r, n, walk) == inRange)
    assertVerdictsExact(s.r, "after the wrap")
  }
}
