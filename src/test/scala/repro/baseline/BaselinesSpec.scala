package repro.baseline

import repro.{SparkSpec, TestSpaces}
import repro.core.{BruteForce, LinearScanCounter, SparkRunner, VPTree, VPTreeCounter}

/** All four scan-based baselines must be exact on every scenario: SNIF,
  * DOLPHIN, and [[ScanDOD]] with a linear scan (Nested-loop) or a VP-tree.
  */
class BaselinesSpec extends SparkSpec {

  private lazy val runner = new SparkRunner(spark)

  for (s <- TestSpaces.scenarios()) {
    lazy val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq

    test(s"${s.name}: Nested-loop is exact") {
      assert(ScanDOD.run(runner, s.space, s.r, s.k, LinearScanCounter()).outliers.toSeq == truth)
    }

    test(s"${s.name}: SNIF is exact") {
      assert(SNIF.run(runner, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: DOLPHIN is exact") {
      assert(Dolphin.run(runner, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: VP-tree DOD is exact") {
      val tree = VPTree.build(s.space, 16, seed = 2)
      assert(ScanDOD.run(runner, s.space, s.r, s.k, VPTreeCounter(tree)).outliers.toSeq == truth)
    }
  }

  test("SNIF is exact across seeds (random cluster centers)") {
    val s = TestSpaces.scenarios().head
    val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq
    for (seed <- 1 to 5) {
      assert(SNIF.run(runner, s.space, s.r, s.k, seed = seed).outliers.toSeq == truth, s"seed=$seed")
    }
  }

  test("DOLPHIN is exact across seeds") {
    val s = TestSpaces.scenarios().head
    val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq
    for (seed <- 1 to 5) {
      assert(Dolphin.run(runner, s.space, s.r, s.k, seed = seed).outliers.toSeq == truth, s"seed=$seed")
    }
  }

  test("every baseline rejects k < 1, r < 0 and r = NaN") {
    val s = TestSpaces.scenarios().head
    val tree = VPTree.build(s.space, 16, seed = 5)
    val detectors: Seq[(String, (Double, Int) => DetectionResult)] = Seq(
      "Nested-loop" -> ((r, k) => ScanDOD.run(runner, s.space, r, k, LinearScanCounter())),
      "VP-tree" -> ((r, k) => ScanDOD.run(runner, s.space, r, k, VPTreeCounter(tree))),
      "SNIF" -> ((r, k) => SNIF.run(runner, s.space, r, k)),
      "DOLPHIN" -> ((r, k) => Dolphin.run(runner, s.space, r, k)),
    )
    for ((name, run) <- detectors; (r, k) <- Seq((s.r, 0), (-1.0, s.k), (Double.NaN, s.k))) {
      withClue(s"$name at r=$r, k=$k: ") {
        assertThrows[IllegalArgumentException](run(r, k))
      }
    }
  }

  test("baselines agree under varied r and k") {
    val s = TestSpaces.scenarios()(1)
    for ((rf, k) <- Seq((0.5, 3), (1.5, 20))) {
      val r = s.r * rf
      val truth = BruteForce.outliers(s.space, r, k).toSeq
      assert(ScanDOD.run(runner, s.space, r, k, LinearScanCounter()).outliers.toSeq == truth)
      assert(SNIF.run(runner, s.space, r, k).outliers.toSeq == truth)
      assert(Dolphin.run(runner, s.space, r, k).outliers.toSeq == truth)
      val tree = VPTree.build(s.space, 16, seed = 3)
      assert(ScanDOD.run(runner, s.space, r, k, VPTreeCounter(tree)).outliers.toSeq == truth)
    }
  }

  test("index size accounting: nested-loop none, SNIF/DOLPHIN/VP-tree positive") {
    val s = TestSpaces.scenarios().head
    assert(ScanDOD.run(runner, s.space, s.r, s.k, LinearScanCounter()).indexBytes == 0L)
    assert(SNIF.run(runner, s.space, s.r, s.k).indexBytes > 0L)
    assert(Dolphin.run(runner, s.space, s.r, s.k).indexBytes > 0L)
    val tree = VPTree.build(s.space, 16, seed = 4)
    assert(ScanDOD.run(runner, s.space, s.r, s.k, VPTreeCounter(tree)).indexBytes == tree.sizeBytes)
  }

  test("results are invariant to the partition count") {
    val s = TestSpaces.scenarios()(3)
    def nestedLoop(parts: Int) =
      ScanDOD.run(new SparkRunner(spark, parts), s.space, s.r, s.k, LinearScanCounter()).outliers.toSeq
    val reference = nestedLoop(1)
    for (p <- Seq(2, 7, 16)) assert(nestedLoop(p) == reference)
  }
}
