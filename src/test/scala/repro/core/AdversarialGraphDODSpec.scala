package repro.core

import repro.{SparkSpec, TestSpaces}
import repro.baseline.{Dolphin, SNIF, ScanDOD}
import repro.graph.{KGraphBuilder, MRPG, NSW, ProximityGraph}

/** Every detector on adversarial input: duplicates, distances landing
  * exactly on `r`, angular near-duplicates, empty strings, and one- and
  * two-object spaces. Each graph runs with its own setup (NSW with `f = 3`;
  * KGraph, MRPG-basic and MRPG with `K = 4`, so MRPG's exact lists hold
  * K' = 16 neighbors and decide every `k <= 16` directly), with a linear
  * scan and with a VP-tree verifying, under `LocalRunner(4)` and
  * `SparkRunner(spark, 4)`. The scan baselines (Nested-loop, VP-tree DOD,
  * SNIF and DOLPHIN) run under `LocalRunner(4)`. Every run must return
  * exactly [[BruteForce.outliers]], and a graph run must evaluate exactly
  * the verdicts it read from its walks fewer distances than a replay that
  * evaluates every pair again.
  */
class AdversarialGraphDODSpec extends SparkSpec {

  private val local = new LocalRunner(4)

  private def graphs(space: MetricSpace): Seq[(String, ProximityGraph)] = Seq(
    "NSW" -> NSW.build(space, f = 3, seed = 1),
    "KGraph" -> KGraphBuilder.build(space, 4, local, seed = 1, maxIters = 4),
    "MRPG-basic" -> MRPG.build(space, 4, local, seed = 1, basic = true, maxIters = 4)._1,
    "MRPG" -> MRPG.build(space, 4, local, seed = 1, maxIters = 4)._1,
  )

  private def baselines(tree: VPTree): Seq[(String, (MetricSpace, Double, Int) => Array[Int])] = Seq(
    "Nested-loop" -> ((sp, r, k) => ScanDOD.run(local, sp, r, k, LinearScanCounter()).outliers),
    "VP-tree" -> ((sp, r, k) => ScanDOD.run(local, sp, r, k, VPTreeCounter(tree)).outliers),
    "SNIF" -> ((sp, r, k) => SNIF.run(local, sp, r, k).outliers),
    "DOLPHIN" -> ((sp, r, k) => Dolphin.run(local, sp, r, k).outliers),
  )

  /** `k` from 1 to past `n`: both sides of K = 4 and of K' = 16, and
    * `n - 1`, `n` and `n + 5`.
    */
  private def ks(n: Int): Seq[Int] = (Seq(1, 2, 4, 5, 8, 16, 17) ++ Seq(n - 1, n, n + 5)).filter(_ >= 1).distinct

  /** Runs every detector on `space` at every (r, k) of `rs` × `ks(n)`. */
  private def assertExact(label: String, space: MetricSpace, rs: Seq[Double]): Unit = {
    val spark4 = new SparkRunner(spark, 4)
    val tree = VPTree.build(space, 4, seed = 1)
    val counters = Seq(LinearScanCounter(), VPTreeCounter(tree))
    val gs = graphs(space)
    for (r <- rs; k <- ks(space.n)) {
      val truth = BruteForce.outliers(space, r, k).toSeq
      for ((name, g) <- gs; counter <- counters) {
        val plain = Replay(space, g, r, k, counter, reuse = false)
        assert(plain.outliers == truth, s"$label $name r=$r k=$k $counter replay")
        for (runner <- Seq(local, spark4)) {
          val at = s"$label $name r=$r k=$k $counter ${runner.getClass.getSimpleName}"
          val res = GraphDOD.run(runner, space, g, r, k, counter)
          assert(res.outliers.toSeq == truth, at)
          assert(res.evaluations + res.reusedVerdicts == plain.evaluations, at)
        }
      }
      for ((name, run) <- baselines(tree))
        assert(run(space, r, k).toSeq == truth, s"$label $name r=$r k=$k")
    }
  }

  test("all-identical points and groups of copies") {
    assertExact("identical", TestSpaces.identical, Seq(0.0, 1.0))
    assertExact("6 points x 5 copies", TestSpaces.copies, Seq(0.0, 0.5, 1000.0))
  }

  test("a 6x6 integer grid under L1: neighbor distances land exactly on r") {
    assertExact("grid", TestSpaces.grid(), Seq(1.0, 2.0))
  }

  test("angular near-duplicates") {
    assertExact("angular", TestSpaces.angularNearDuplicates, Seq(0.0, 1e-9, 1e-7, 0.2))
  }

  test("words with duplicates and pairs at edit distance exactly r") {
    assertExact("words", TestSpaces.adversarialWords, Seq(0.0, 1.0, 2.0, 3.0))
  }

  test("one- and two-object spaces at r = 0") {
    for ((label, space) <- TestSpaces.tiny) assertExact(label, space, Seq(0.0))
  }
}
