package repro.baseline

import repro.{SparkSpec, TestSpaces}
import repro.core.{BruteForce, SparkRunner, VPTree}

/** All four scan-based baselines must be exact on every scenario. */
class BaselinesSpec extends SparkSpec {

  private lazy val runner = new SparkRunner(spark)

  for (s <- TestSpaces.scenarios()) {
    lazy val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq

    test(s"${s.name}: Nested-loop is exact") {
      assert(NestedLoop.run(runner, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: SNIF is exact") {
      assert(SNIF.run(runner, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: DOLPHIN is exact") {
      assert(Dolphin.run(runner, s.space, s.r, s.k).outliers.toSeq == truth)
    }

    test(s"${s.name}: VP-tree DOD is exact") {
      val tree = VPTree.build(s.space, 16, seed = 2)
      assert(VPTreeDOD.run(runner, s.space, s.r, s.k, tree).outliers.toSeq == truth)
    }
  }

  test("SNIF is exact across seeds (random cluster centers)") {
    val s = TestSpaces.scenarios().head
    val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq
    for (seed <- 1 to 5) {
      assert(SNIF.run(runner, s.space, s.r, s.k, seed = seed).outliers.toSeq == truth, s"seed=$seed")
    }
  }

  test("DOLPHIN is exact across pInlier settings") {
    val s = TestSpaces.scenarios().head
    val truth = BruteForce.outliers(s.space, s.r, s.k).toSeq
    for (p <- Seq(0.0, 0.05, 0.5, 1.0)) {
      assert(Dolphin.run(runner, s.space, s.r, s.k, pInlier = p).outliers.toSeq == truth, s"p=$p")
    }
  }

  test("baselines agree under varied r and k") {
    val s = TestSpaces.scenarios()(1)
    for ((rf, k) <- Seq((0.5, 3), (1.5, 20))) {
      val r = s.r * rf
      val truth = BruteForce.outliers(s.space, r, k).toSeq
      assert(NestedLoop.run(runner, s.space, r, k).outliers.toSeq == truth)
      assert(SNIF.run(runner, s.space, r, k).outliers.toSeq == truth)
      assert(Dolphin.run(runner, s.space, r, k).outliers.toSeq == truth)
      val tree = VPTree.build(s.space, 16, seed = 3)
      assert(VPTreeDOD.run(runner, s.space, r, k, tree).outliers.toSeq == truth)
    }
  }

  test("index size accounting: nested-loop none, SNIF/DOLPHIN/VP-tree positive") {
    val s = TestSpaces.scenarios().head
    assert(NestedLoop.run(runner, s.space, s.r, s.k).indexBytes == 0L)
    assert(SNIF.run(runner, s.space, s.r, s.k).indexBytes > 0L)
    assert(Dolphin.run(runner, s.space, s.r, s.k).indexBytes > 0L)
    val tree = VPTree.build(s.space, 16, seed = 4)
    assert(VPTreeDOD.run(runner, s.space, s.r, s.k, tree).indexBytes == tree.sizeBytes)
  }

  test("results are invariant to the partition count") {
    val s = TestSpaces.scenarios()(3)
    val reference = NestedLoop.run(new SparkRunner(spark, 1), s.space, s.r, s.k).outliers.toSeq
    for (p <- Seq(2, 7, 16)) {
      assert(NestedLoop.run(new SparkRunner(spark, p), s.space, s.r, s.k).outliers.toSeq == reference)
    }
  }
}
