package repro.core

import repro.{SparkSpec, TestSpaces}
import repro.data.Datasets
import repro.graph.{MRPG, ProximityGraph}

/** Verification reads the verdicts of the candidate's Greedy-Counting walk:
  * the same counts and outliers as a verifier that evaluates every pair
  * again, exactly `reusedVerdicts` fewer evaluations, no verdict read from
  * another walk, and none left over from before the walk stamp's wrap.
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
    GreedyCounting.count(s.space, g, 0, s.r, s.k)
    val walk = GreedyCounting.walkFrom(s.space, 0, s.r)
    assertThrows[IllegalArgumentException](GreedyCounting.walkFrom(s.space, 1, s.r))
    assertThrows[IllegalArgumentException](GreedyCounting.walkFrom(s.space, 0, s.r * 2))
    assertThrows[IllegalArgumentException](GreedyCounting.walkFrom(new CountingSpace(s.space), 0, s.r))
    for (counter <- Seq(LinearScanCounter(), VPTreeCounter(tree))) {
      assert(counter.count(s.space, 0, s.r, s.k, walk) == counter.count(s.space, 0, s.r, s.k), counter)
      assertThrows[IllegalArgumentException](counter.count(s.space, 1, s.r, s.k, walk))
      assertThrows[IllegalArgumentException](counter.count(s.space, 0, s.r / 2, s.k, walk))
    }
    // a later walk on the thread makes the earlier one stale
    GreedyCounting.count(s.space, g, 1, s.r, s.k)
    for (counter <- Seq(LinearScanCounter(), VPTreeCounter(tree)))
      assertThrows[IllegalArgumentException](counter.count(s.space, 0, s.r, s.k, walk))
  }

  /** Runs `body` on a new thread, whose walk state starts empty. */
  private def onFreshThread(body: => Unit): Unit = {
    var failure: Throwable = null
    val t = new Thread(() => try body catch { case e: Throwable => failure = e })
    t.start()
    t.join()
    if (failure != null) throw failure
  }

  test("the walk stamp's wrap leaves no stale in-range verdict") {
    val s = scenario
    val n = s.space.n
    val g = completeGraph(n)
    val tree = VPTree.build(s.space, 16, seed = 3)
    val q = 0
    def assertVerdictsExact(r: Double, label: String): Unit = {
      val walk = GreedyCounting.walkFrom(s.space, q, r)
      for (v <- 0 until n if v != q) {
        assert(walk.decided(v), s"$label: vertex $v")
        assert(walk.inRange(v) == s.space.within(q, v, r), s"$label: vertex $v")
      }
      val truth = BruteForce.countNeighbors(s.space, q, r, n)
      for (counter <- Seq(LinearScanCounter(), VPTreeCounter(tree)))
        assert(counter.count(s.space, q, r, n, walk) == truth, s"$label: $counter")
    }
    onFreshThread {
      // stamp 1: every vertex is within the huge radius
      GreedyCounting.count(s.space, g, q, 1e9, n)
      assertVerdictsExact(1e9, "stamp 1")
      // the last stamp before the wrap, at a radius that leaves stamp 1's
      // in-range marks on the vertices outside it
      GreedyCounting.setStamp(Int.MaxValue - 1)
      val inRange = GreedyCounting.count(s.space, g, q, s.r, n)
      assert(inRange == BruteForce.countNeighbors(s.space, q, s.r, n))
      assert(inRange < n - 1, "the radius must leave some vertex out")
      assertVerdictsExact(s.r, "stamp Int.MaxValue")
      // the wrap back to stamp 1
      assert(GreedyCounting.count(s.space, g, q, s.r, n) == inRange)
      assertVerdictsExact(s.r, "after the wrap")
    }
  }
}
