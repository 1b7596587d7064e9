package repro.core

import repro.{SparkSpec, TestSpaces}
import repro.baseline.{DetectionResult, Dolphin, SNIF, ScanDOD}
import repro.graph.{KGraphBuilder, MRPG, ProximityGraph}

/** Distance-evaluation accounting, including through the Spark runner and
  * through chunks that read serialized copies ([[CopyingRunner]]).
  */
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

  test("CountingSpace counts evaluations from concurrent Spark task threads") {
    // The fan-outs do not count this way: each chunk counts in its own
    // ChunkCount. This checks only that CountingSpace itself loses no
    // evaluation when local-mode task threads share it.
    val cs = new CountingSpace(TestSpaces.clustered(200, 4, VectorMetric.L2, seed = 9))
    val before = cs.evaluations
    new SparkRunner(spark, 4).runWithData(cs.n, cs) { (sp, s, e) =>
      (s until e).map(p => BruteForce.countNeighbors(sp, p, 1e18, 1)).sum
    }
    // cap 1 and an unbounded radius: exactly one distance per object
    assert(cs.evaluations - before == cs.n.toLong)
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

  test("ChunkCount counts in its own field on the unwrapped space; add reaches every wrapper") {
    val base = TestSpaces.clustered(50, 4, VectorMetric.L2, seed = 12)
    val inner = new CountingSpace(base)
    val outer = new CountingSpace(inner)
    assert(CountingSpace.unwrap(outer) eq base)
    val chunk = new ChunkCount(outer)
    assert(chunk.dist(0, 1) == base.dist(0, 1))
    assert(chunk.within(2, 3, 1.0) == base.within(2, 3, 1.0))
    assert(chunk.evaluations == 2L && chunk.roundingSlack == base.roundingSlack)
    assert(inner.evaluations == 0L && outer.evaluations == 0L)
    CountingSpace.add(outer, chunk.evaluations)
    assert(inner.evaluations == 2L && outer.evaluations == 2L)
    CountingSpace.add(base, 5L) // a space that counts nothing ignores it
  }

  // ---- chunks that read copies count as LocalRunner's do ------------------

  private val vectors = TestSpaces.clustered(300, 8, VectorMetric.L2, seed = 13, outlierFrac = 0.04)
  private val words = TestSpaces.strings(200, seed = 14)

  /** `run`'s result and evaluations under LocalRunner and under
    * CopyingRunner, each on a fresh CountingSpace over `base`.
    */
  private def bothRunners[A](base: MetricSpace)(run: (ParRunner, CountingSpace) => A): Seq[(A, Long)] =
    Seq(new LocalRunner(4), new CopyingRunner(4)).map { runner =>
      val cs = new CountingSpace(base)
      (run(runner, cs), cs.evaluations)
    }

  private def sameGraph(a: ProximityGraph, b: ProximityGraph): Boolean = {
    def sameRows(x: Array[Array[Int]], y: Array[Array[Int]]): Boolean =
      (x == null && y == null) || (x != null && y != null && x.length == y.length &&
        x.indices.forall(i => java.util.Arrays.equals(x(i), y(i))))
    a.exactK == b.exactK && java.util.Arrays.equals(a.isPivot, b.isPivot) &&
      sameRows(a.adj, b.adj) && sameRows(a.exactLists, b.exactLists)
  }

  test("copied chunks: MRPG and KGraph builds count and build as under LocalRunner") {
    for (base <- Seq(vectors, words)) {
      val Seq((mrpgLocal, mrpgLocalDists), (mrpgCopied, mrpgCopiedDists)) =
        bothRunners(base)((runner, cs) => MRPG.build(cs, 8, runner, seed = 3, maxIters = 4)._1)
      assert(sameGraph(mrpgLocal, mrpgCopied))
      assert(mrpgCopiedDists == mrpgLocalDists)
      val Seq((kgLocal, kgLocalDists), (kgCopied, kgCopiedDists)) =
        bothRunners(base)((runner, cs) => KGraphBuilder.build(cs, 8, runner, seed = 3, maxIters = 4))
      assert(sameGraph(kgLocal, kgCopied))
      assert(kgCopiedDists == kgLocalDists)
    }
  }

  test("copied chunks: GraphDOD.run counts, reports and detects as under LocalRunner") {
    for ((base, r, k) <- Seq((vectors, 9.0, 10), (words, 4.0, 8))) {
      val (g, _) = MRPG.build(base, 8, new LocalRunner(4), seed = 3, maxIters = 4)
      for (counter <- Seq(LinearScanCounter(), VPTreeCounter(VPTree.build(base, 16, seed = 3)))) {
        val Seq((local, localDists), (copied, copiedDists)) =
          bothRunners(base)((runner, cs) => GraphDOD.run(runner, cs, g, r, k, counter = counter))
        assert(copied.outliers.toSeq == local.outliers.toSeq, counter)
        assert(copied.outliers.toSeq == BruteForce.outliers(base, r, k).toSeq, counter)
        assert(copied.candidates == local.candidates, counter)
        assert(copiedDists == localDists, counter)
        assert(copied.evaluations == copiedDists && local.evaluations == localDists, counter)
      }
    }
  }

  test("copied chunks: ScanDOD, SNIF and DOLPHIN count and detect as under LocalRunner") {
    for ((base, r, k) <- Seq((vectors, 9.0, 10), (words, 4.0, 8))) {
      val tree = VPTree.build(base, 16, seed = 3)
      val detectors: Seq[(String, (ParRunner, CountingSpace) => DetectionResult)] = Seq(
        "Nested-loop" -> ((runner, cs) => ScanDOD.run(runner, cs, r, k, LinearScanCounter())),
        "VP-tree" -> ((runner, cs) => ScanDOD.run(runner, cs, r, k, VPTreeCounter(tree))),
        "SNIF" -> ((runner, cs) => SNIF.run(runner, cs, r, k)),
        "DOLPHIN" -> ((runner, cs) => Dolphin.run(runner, cs, r, k)),
      )
      for ((name, detect) <- detectors) {
        val Seq((local, localDists), (copied, copiedDists)) = bothRunners(base)(detect)
        assert(copied.outliers.toSeq == local.outliers.toSeq, name)
        assert(copied.outliers.toSeq == BruteForce.outliers(base, r, k).toSeq, name)
        assert(copiedDists == localDists, name)
      }
    }
  }
}
