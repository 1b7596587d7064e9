package repro.core

import repro.{SparkSpec, TestSpaces}

/** Distance-evaluation accounting, including through the Spark runner. */
class CountingSpaceSpec extends SparkSpec {

  test("counts driver-side evaluations exactly") {
    val cs = new CountingSpace(TestSpaces.clustered(100, 4, VectorMetric.L2, seed = 7))
    assert(cs.evaluations == 0L)
    cs.dist(0, 1); cs.dist(2, 3); cs.dist(0, 1)
    assert(cs.evaluations == 3L)
  }

  test("delegates n and dist values to the base space") {
    val base = TestSpaces.clustered(50, 4, VectorMetric.L2, seed = 8)
    val cs = new CountingSpace(base)
    assert(cs.n == base.n)
    for (i <- 0 until 10; j <- 0 until 10) assert(cs.dist(i, j) == base.dist(i, j))
  }

  test("within counts exactly one evaluation and returns the base space's verdict") {
    for (base <- Seq(TestSpaces.clustered(60, 12, VectorMetric.L2, seed = 11), TestSpaces.strings(60, seed = 12))) {
      val cs = new CountingSpace(base)
      var calls = 0L
      for (i <- 0 until 20; j <- 0 until 20; r <- Seq(0.0, 2.0, 5.0, base.dist(i, j), Double.PositiveInfinity)) {
        assert(cs.within(i, j, r) == base.within(i, j, r))
        calls += 1
        assert(cs.evaluations == calls)
      }
      assert(cs.roundingSlack == base.roundingSlack)
    }
  }

  test("executor-side evaluations in local mode land in the same adder") {
    val cs = new CountingSpace(TestSpaces.clustered(200, 4, VectorMetric.L2, seed = 9))
    val before = cs.evaluations
    new SparkRunner(spark, 4).runWithData(cs.n, cs) { (sp, s, e) =>
      (s until e).map(p => BruteForce.countNeighbors(sp, p, 1e18, 1)).sum
    }
    // nested loop with cap=1 as Spark tasks: at least one distance per object
    assert(cs.evaluations - before >= cs.n.toLong)
  }

  test("a full DOD run reports fewer distance evaluations for MRPG than nested loop") {
    val base = TestSpaces.clustered(600, 6, VectorMetric.L2, seed = 10, outlierFrac = 0.03)
    val runner = new LocalRunner(4)
    val (g, _) = repro.graph.MRPG.build(base, 8, runner, seed = 3, maxIters = 4)

    val csGraph = new CountingSpace(base)
    val gr = GraphDOD.detectLocal(csGraph, g, 9.0, 10)
    val csNested = new CountingSpace(base)
    val truth = BruteForce.outliers(csNested, 9.0, 10)

    assert(gr.outliers.toSeq == truth.toSeq)
    assert(csGraph.evaluations < csNested.evaluations,
      s"graph ${csGraph.evaluations} vs nested ${csNested.evaluations}")
  }
}

