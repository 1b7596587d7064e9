package repro.core

import repro.SparkSpec
import repro.core.{VectorMetric => VM}
import repro.graph.{KGraphBuilder, MRPG, NSW, ProximityGraph}
import scala.util.Random

/** The four graph detectors on adversarial input: duplicates, distances
  * landing exactly on `r`, angular near-duplicates, and one- and two-object
  * spaces. Each graph runs with its own setup (NSW with `f = 3`; KGraph,
  * MRPG-basic and MRPG with `K = 4`, so MRPG's exact lists hold K' = 16
  * neighbors and decide every `k <= 16` directly), and every run must
  * return exactly [[BruteForce.outliers]]. Every graph runs under
  * `LocalRunner(4)`; MRPG also under `SparkRunner(spark, 4)`.
  */
class AdversarialGraphDODSpec extends SparkSpec {

  private val local = new LocalRunner(4)

  private def graphs(space: MetricSpace): Seq[(String, ProximityGraph)] = Seq(
    "NSW" -> NSW.build(space, f = 3, seed = 1),
    "KGraph" -> KGraphBuilder.build(space, 4, local, seed = 1, maxIters = 4),
    "MRPG-basic" -> MRPG.build(space, 4, local, seed = 1, basic = true, maxIters = 4)._1,
    "MRPG" -> MRPG.build(space, 4, local, seed = 1, maxIters = 4)._1,
  )

  /** `k` from 1 to past `n`: both sides of K = 4 and of K' = 16, and
    * `n - 1`, `n` and `n + 5`.
    */
  private def ks(n: Int): Seq[Int] = (Seq(1, 2, 4, 5, 8, 16, 17) ++ Seq(n - 1, n, n + 5)).filter(_ >= 1).distinct

  /** Runs every graph detector on `space` at every (r, k) of `rs` × `ks(n)`. */
  private def assertExact(label: String, space: MetricSpace, rs: Seq[Double]): Unit = {
    val spark4 = new SparkRunner(spark, 4)
    for ((name, g) <- graphs(space); r <- rs; k <- ks(space.n)) {
      val truth = BruteForce.outliers(space, r, k).toSeq
      for (runner <- if (name == "MRPG") Seq(local, spark4) else Seq(local)) {
        val res = GraphDOD.run(runner, space, g, r, k)
        assert(res.outliers.toSeq == truth, s"$label $name r=$r k=$k ${runner.getClass.getSimpleName}")
      }
    }
  }

  test("all-identical points and groups of copies") {
    assertExact("identical", new VectorSpace(Array.fill(30)(Array(1.5, -2.0, 3.25)), VM.L2), Seq(0.0, 1.0))
    val rng = new Random(201)
    val centers = Array.fill(6)(Array.fill(3)(rng.nextDouble() * 100.0))
    val copies = new VectorSpace(Array.tabulate(30)(i => centers(i % 6).clone()), VM.L2)
    assertExact("6 points x 5 copies", copies, Seq(0.0, 0.5, 1000.0))
  }

  test("a 6x6 integer grid under L1: neighbor distances land exactly on r") {
    val grid = new VectorSpace(Array.tabulate(36)(i => Array((i / 6).toDouble, (i % 6).toDouble)), VM.L1)
    assertExact("grid", grid, Seq(1.0, 2.0))
  }

  test("angular near-duplicates") {
    val rng = new Random(202)
    def unit(v: Array[Double]): Array[Double] = { val nrm = math.sqrt(v.map(x => x * x).sum); v.map(_ / nrm) }
    val bases = Array.fill(4)(unit(Array.fill(8)(rng.nextGaussian())))
    val pts = Array.tabulate(40) { i =>
      if (i >= 36) unit(Array.fill(8)(rng.nextGaussian())) // a few lone directions
      else unit(bases(i % 4).map(_ + rng.nextGaussian() * 1e-9))
    }
    assertExact("angular", new VectorSpace(pts, VM.Angular), Seq(0.0, 1e-9, 1e-7, 0.2))
  }

  test("words with duplicates and pairs at edit distance exactly r") {
    val words = Array(
      "kitten", "kitten", "kitten", "sitten", "sittin", "sitting", "mitten", "bitten",
      "flaw", "flaw", "lawn", "flown", "flow", "claw", "slaw",
      "abcdef", "abcdeg", "abcdxy", "abwxyz", "uvwxyz",
      "outlier", "zzzzzzzzzz", "q", "qq", "q",
    )
    assertExact("words", new StringSpace(words), Seq(0.0, 1.0, 2.0, 3.0))
  }

  test("one- and two-object spaces at r = 0") {
    for (
      (label, space) <- Seq(
        "one vector" -> new VectorSpace(Array(Array(1.0, 2.0)), VM.L2),
        "two equal vectors" -> new VectorSpace(Array(Array(1.0, 2.0), Array(1.0, 2.0)), VM.L2),
        "two vectors" -> new VectorSpace(Array(Array(1.0, 2.0), Array(4.0, 6.0)), VM.L2),
        "one word" -> new StringSpace(Array("kitten")),
        "two equal words" -> new StringSpace(Array("kitten", "kitten")),
        "two words" -> new StringSpace(Array("kitten", "sitting")),
      )
    ) assertExact(label, space, Seq(0.0))
  }
}
