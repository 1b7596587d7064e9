package repro.baseline

import repro.{SparkSpec, TestSpaces}
import repro.core.{BruteForce, CountingSpace, LinearScanCounter, LocalRunner, SparkRunner, VPTree, VPTreeCounter, VectorMetric, VectorSpace}
import repro.data.Datasets

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

  test("SNIF stays exact where computed L2 distances break its triangle-inequality rules by an ulp") {
    // three points on one line; the middle one is the cluster center c in
    // the seeds whose scan order opens its cluster first
    val coMembers = new VectorSpace(Array( // d(p, q) > 2 * d(p, c) = 2 * d(c, q)
      Array(6.763, 0.034), Array(3.0845, 1.4064999999999999), Array(-0.594, 2.779)), VectorMetric.L2)
    val farCenter = new VectorSpace(Array( // d(m, c) <= d(p, m) / 2, d(p, c) > 1.5 * d(p, m)
      Array(-0.772, 0.607), Array(-0.39066666666666666, 5.867), Array(-0.2, 8.497)), VectorMetric.L2)
    val cases = Seq(
      // p and q join c's cluster at r / 2, yet their computed distance exceeds r
      ("co-members", coMembers, 2 * coMembers.dist(0, 1), 2),
      // the neighbour m of p sits in c's cluster, yet d(p, c) exceeds 3r/2
      ("center filter", farCenter, farCenter.dist(0, 1), 1),
    )
    for ((rule, space, r, k) <- cases) {
      val truth = BruteForce.outliers(space, r, k).toSeq
      for (seed <- 1 to 20)
        assert(SNIF.run(runner, space, r, k, seed = seed).outliers.toSeq == truth, s"$rule seed=$seed")
    }
  }

  test("results are invariant to the partition count") {
    val s = TestSpaces.scenarios()(3)
    def nestedLoop(parts: Int) =
      ScanDOD.run(new SparkRunner(spark, parts), s.space, s.r, s.k, LinearScanCounter()).outliers.toSeq
    val reference = nestedLoop(1)
    for (p <- Seq(2, 7, 16)) assert(nestedLoop(p) == reference)
  }

  // CountingSpace evaluations of each query of TestSpaces.pinnedGrid, in
  // grid order, captured at ab95f41: every distance test counts once,
  // whichever kernel answers it. The VP-tree rows were captured again once
  // a range count stopped evaluating dist(q, q) at the query's own node
  private val pinnedDists: Map[String, Seq[Long]] = Map(
    "deep Nested-loop" -> Seq(397262L, 523093L, 358748L, 498086L, 346743L, 486105L),
    "deep VP-tree" -> Seq(156719L, 194424L, 156614L, 196977L, 160133L, 200048L),
    "deep SNIF" -> Seq(687480L, 814869L, 576973L, 720214L, 453319L, 564106L),
    "deep DOLPHIN" -> Seq(440821L, 692451L, 379898L, 634406L, 361544L, 599428L),
    "words Nested-loop" -> Seq(24651L, 33920L, 23864L, 33078L, 23634L, 33078L),
    "words VP-tree" -> Seq(16164L, 21343L, 17052L, 21695L, 18002L, 22934L),
    "words SNIF" -> Seq(22507L, 28533L, 14445L, 18708L, 15112L, 19604L),
    "words DOLPHIN" -> Seq(29943L, 45158L, 26539L, 41707L, 26084L, 41707L),
  )

  test("baseline distance counts on deep and words (scale 0.05) are pinned") {
    val local = new LocalRunner(4)
    val got = Seq(Datasets.deep, Datasets.words).flatMap { spec =>
      val base = spec.space(0.05)
      val tree = VPTree.build(base, capacity = 32, seed = spec.seed)
      val detectors: Seq[(String, (CountingSpace, Double, Int) => DetectionResult)] = Seq(
        "Nested-loop" -> ((cs, r, k) => ScanDOD.run(local, cs, r, k, LinearScanCounter())),
        "VP-tree" -> ((cs, r, k) => ScanDOD.run(local, cs, r, k, VPTreeCounter(tree))),
        "SNIF" -> ((cs, r, k) => SNIF.run(local, cs, r, k, seed = spec.seed)),
        "DOLPHIN" -> ((cs, r, k) => Dolphin.run(local, cs, r, k, seed = spec.seed)),
      )
      detectors.map { case (name, run) =>
        s"${spec.name} $name" -> TestSpaces.pinnedGrid(spec).map { case (r, k) =>
          val cs = new CountingSpace(base)
          val res = run(cs, r, k)
          assert(res.outliers.toSeq == BruteForce.outliers(base, r, k).toSeq, s"${spec.name} $name r=$r k=$k")
          cs.evaluations
        }
      }
    }.toMap
    assert(got == pinnedDists, got.map { case (n, ds) => s""""$n" -> Seq(${ds.mkString("", "L, ", "L")})""" })
  }
}
