package repro

import repro.core.{MetricSpace, StringSpace, VectorMetric, VectorSpace}
import repro.data.{DatasetSpec, Datasets}
import scala.util.Random

/** Small driver-side datasets for unit tests (no Spark needed): clustered
  * inliers + clear outliers, mirroring the bench generators but at test
  * sizes with test-sized `k`.
  */
object TestSpaces {

  def clustered(
      n: Int,
      dim: Int,
      metric: VectorMetric,
      nClusters: Int = 5,
      sigma: Double = 2.0,
      range: Double = 100.0,
      outlierFrac: Double = 0.03,
      seed: Long = 1L,
  ): VectorSpace = {
    val rng = new Random(seed)
    val centers = Array.fill(nClusters, dim)(rng.nextDouble() * range)
    val pts = Array.tabulate(n) { _ =>
      if (rng.nextDouble() < outlierFrac) Array.fill(dim)(rng.nextDouble() * range)
      else {
        val c = rng.nextInt(nClusters)
        Array.tabulate(dim)(i => centers(c)(i) + rng.nextGaussian() * sigma)
      }
    }
    new VectorSpace(pts, metric)
  }

  def angular(
      n: Int,
      dim: Int,
      nClusters: Int = 5,
      sigma: Double = 0.05,
      outlierFrac: Double = 0.03,
      seed: Long = 2L,
  ): VectorSpace = {
    val rng = new Random(seed)
    def unit(): Array[Double] = {
      val v = Array.fill(dim)(rng.nextGaussian())
      val nrm = math.sqrt(v.map(x => x * x).sum)
      v.map(_ / nrm)
    }
    val centers = Array.fill(nClusters)(unit())
    val pts = Array.tabulate(n) { _ =>
      if (rng.nextDouble() < outlierFrac) unit()
      else {
        val c = rng.nextInt(nClusters)
        val v = Array.tabulate(dim)(i => centers(c)(i) + rng.nextGaussian() * sigma)
        val nrm = math.sqrt(v.map(x => x * x).sum)
        v.map(_ / nrm)
      }
    }
    new VectorSpace(pts, VectorMetric.Angular)
  }

  def strings(
      n: Int,
      nRoots: Int = 8,
      outlierFrac: Double = 0.04,
      seed: Long = 3L,
  ): StringSpace = {
    val rng = new Random(seed)
    def word(len: Int): String = new String(Array.fill(len)(('a' + rng.nextInt(26)).toChar))
    val roots = Array.fill(nRoots)(word(8 + rng.nextInt(5)))
    val ws = Array.tabulate(n) { _ =>
      if (rng.nextDouble() < outlierFrac) word(20 + rng.nextInt(9))
      else {
        var w = roots(rng.nextInt(nRoots))
        val edits = rng.nextInt(3)
        for (_ <- 0 until edits) {
          val pos = rng.nextInt(w.length)
          val ch = ('a' + rng.nextInt(26)).toChar
          rng.nextInt(3) match {
            case 0 => w = w.updated(pos, ch)
            case 1 => w = w.substring(0, pos) + ch + w.substring(pos)
            case _ => if (w.length > 4) w = w.substring(0, pos) + w.substring(pos + 1)
          }
        }
        w
      }
    }
    new StringSpace(ws)
  }

  /** Structure-free data — adversarial for graph reachability. */
  def uniform(n: Int, dim: Int, metric: VectorMetric, seed: Long = 4L): VectorSpace = {
    val rng = new Random(seed)
    new VectorSpace(Array.fill(n, dim)(rng.nextDouble() * 100.0), metric)
  }

  // ---- adversarial input: duplicates, exact ties, near-duplicates, tiny spaces

  /** 30 copies of one point under L2: every distance is 0. */
  def identical: VectorSpace = new VectorSpace(Array.fill(30)(Array(1.5, -2.0, 3.25)), VectorMetric.L2)

  /** 6 random points under L2, 5 copies of each. */
  def copies: VectorSpace = {
    val rng = new Random(201)
    val centers = Array.fill(6)(Array.fill(3)(rng.nextDouble() * 100.0))
    new VectorSpace(Array.tabulate(30)(i => centers(i % 6).clone()), VectorMetric.L2)
  }

  /** A `side` x `side` integer grid under L1: many neighbors at exactly
    * equal distances.
    */
  def grid(side: Int = 6): VectorSpace =
    new VectorSpace(Array.tabulate(side * side)(i => Array((i / side).toDouble, (i % side).toDouble)), VectorMetric.L1)

  /** 36 unit vectors within about 1e-9 of 4 directions, and 4 lone
    * directions, under the angular distance.
    */
  def angularNearDuplicates: VectorSpace = {
    val rng = new Random(202)
    def unit(v: Array[Double]): Array[Double] = { val nrm = math.sqrt(v.map(x => x * x).sum); v.map(_ / nrm) }
    val bases = Array.fill(4)(unit(Array.fill(8)(rng.nextGaussian())))
    val pts = Array.tabulate(40) { i =>
      if (i >= 36) unit(Array.fill(8)(rng.nextGaussian())) // a few lone directions
      else unit(bases(i % 4).map(_ + rng.nextGaussian() * 1e-9))
    }
    new VectorSpace(pts, VectorMetric.Angular)
  }

  /** Words with duplicates, empty strings and pairs at edit distance 1 to 3. */
  def adversarialWords: StringSpace = new StringSpace(Array(
    "kitten", "kitten", "kitten", "sitten", "sittin", "sitting", "mitten", "bitten",
    "flaw", "flaw", "lawn", "flown", "flow", "claw", "slaw",
    "abcdef", "abcdeg", "abcdxy", "abwxyz", "uvwxyz",
    "outlier", "zzzzzzzzzz", "q", "qq", "q", "", "", "",
  ))

  /** One- and two-object spaces, equal and distinct, vectors and words. */
  def tiny: Seq[(String, MetricSpace)] = Seq(
    "one vector" -> new VectorSpace(Array(Array(1.0, 2.0)), VectorMetric.L2),
    "two equal vectors" -> new VectorSpace(Array(Array(1.0, 2.0), Array(1.0, 2.0)), VectorMetric.L2),
    "two vectors" -> new VectorSpace(Array(Array(1.0, 2.0), Array(4.0, 6.0)), VectorMetric.L2),
    "one word" -> new StringSpace(Array("kitten")),
    "two equal words" -> new StringSpace(Array("kitten", "kitten")),
    "two words" -> new StringSpace(Array("kitten", "sitting")),
    "two empty words" -> new StringSpace(Array("", "")),
    "an empty and a one-letter word" -> new StringSpace(Array("", "q")),
  )

  /** Every adversarial space above, named. */
  def adversarial: Seq[(String, MetricSpace)] = Seq(
    "identical" -> identical,
    "6 points x 5 copies" -> copies,
    "grid" -> grid(),
    "angular" -> angularNearDuplicates,
    "words" -> adversarialWords,
  ) ++ tiny

  /** One named end-to-end scenario: dataset + DOD parameters chosen so both
    * outliers and inliers exist.
    */
  final case class Scenario(name: String, space: MetricSpace, r: Double, k: Int)

  /** Small catalog covering all five distance functions. */
  def scenarios(seed: Long = 10L): Seq[Scenario] = Seq(
    Scenario("l2-clustered", clustered(600, 8, VectorMetric.L2, seed = seed), r = 9.0, k = 10),
    Scenario("l1-clustered", clustered(600, 8, VectorMetric.L1, seed = seed + 1), r = 20.0, k = 10),
    Scenario("l4-clustered", clustered(500, 16, VectorMetric.L4, seed = seed + 2), r = 7.0, k = 8),
    Scenario("angular-clustered", angular(600, 12, seed = seed + 3), r = 0.12, k = 10),
    Scenario("edit-strings", strings(500, seed = seed + 4), r = 4.0, k = 8),
  )

  /** The (r, k) grid whose detection distance counts the suites pin, per
    * dataset: the benchmark's `r` values around the dataset's default, and
    * two `k`.
    */
  def pinnedGrid(spec: DatasetSpec): Seq[(Double, Int)] = {
    val (rs, ks) = spec match {
      case Datasets.deep => (Seq(20.0, 22.0, 24.0), Seq(20, 50))
      case Datasets.words => (Seq(3.0, 4.0, 5.0), Seq(5, 15))
      case other => throw new IllegalArgumentException(s"no pinned grid for ${other.name}")
    }
    for (r <- rs; k <- ks) yield (r, k)
  }
}
