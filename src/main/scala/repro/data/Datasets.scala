package repro.data

import org.apache.spark.sql.SparkSession
import repro.core.{MetricSpace, StringSpace, VectorMetric, VectorSpace}

/** One synthetic substitute for a paper dataset (see DESIGN.md for the
  * substitution rationale and parameter derivations).
  *
  * @param baseN      cardinality at bench scale 1.0
  * @param r          default distance threshold (Table 2 analog)
  * @param k          default count threshold — the paper's exact value
  * @param graphK     proximity-graph degree K (paper: 25, 40 for PAMAP2;
  *                   scaled to 20 / 30 here)
  * @param vpVerify   use a VP-tree in Exact-Counting (paper: HEPMASS,
  *                   PAMAP2, Words — low intrinsic dimensionality)
  * @param paperRatio the paper's Table 2 outlier ratio [%], for reporting
  * @param nClusters  dense clusters (for Words, dense root words)
  * @param range      L1/L2/L4 centers and outliers are uniform in
  *                   `[0, range]^dim`
  * @param miniFrac   fraction of rows in sparse mini-clusters (for Words,
  *                   the sparse-root fraction)
  * @param nMini      number of sparse mini-clusters (for Words, the
  *                   sparse-root count); 0 turns them off
  *
  * `SynthData` generates the rows from these fields.
  */
final case class DatasetSpec(
    name: String,
    paperName: String,
    baseN: Int,
    dim: Int,
    metric: String,
    nClusters: Int,
    sigma: Double,
    range: Double,
    outlierFrac: Double,
    r: Double,
    k: Int,
    graphK: Int,
    vpVerify: Boolean,
    seed: Long,
    paperRatio: Double,
    miniFrac: Double = 0.0,
    nMini: Int = 0,
    miniSigmaFactor: Double = 1.2,
) {
  def n(scale: Double): Int = math.max(200, (baseN * scale).toInt)

  /** The in-memory metric space, index == id (the paper's P is
    * memory-resident), tabulated from the generator on the calling thread:
    * no SparkSession, Spark SQL query or Spark job.
    */
  def space(scale: Double = 1.0): MetricSpace =
    if (metric == "Edit") {
      val gen = SynthData.words(this)
      new StringSpace(Array.tabulate(n(scale))(gen(_)))
    } else {
      val gen = SynthData.vectors(this)
      new VectorSpace(Array.tabulate(n(scale))(gen(_)), VectorMetric.byName(metric))
    }

  /** [[space]]`(scale)`; the session is ignored. Kept because the benchmark
    * harness (`perfbench`) compiles against this signature.
    */
  def space(spark: SparkSession, scale: Double): MetricSpace = space(scale)
}

object Datasets {

  // r values derive from the generators' within-cluster distance scale
  // (~1.35x the expected co-member distance, covering the 1.3x per-cluster
  // spread); k keeps the paper's Table 2 values; outlierFrac matches the
  // paper's outlier ratio.
  val deep = DatasetSpec("deep", "Deep", 16000, 32, "L2", 30, 2.0, 30.0, 0.005,
    r = 22.0, k = 50, graphK = 20, vpVerify = false, seed = 101L,
    paperRatio = 0.62,
    miniFrac = 0.06, nMini = 8)

  val glove = DatasetSpec("glove", "Glove", 12000, 25, "Angular", 25, 0.05, 0.0, 0.0044,
    r = 0.15, k = 20, graphK = 20, vpVerify = false, seed = 102L,
    paperRatio = 0.55,
    miniFrac = 0.05, nMini = 12, miniSigmaFactor = 1.3)

  val hepmass = DatasetSpec("hepmass", "HEPMASS", 14000, 27, "L1", 20, 2.0, 30.0, 0.0052,
    r = 82.0, k = 50, graphK = 20, vpVerify = true, seed = 103L,
    paperRatio = 0.65,
    miniFrac = 0.06, nMini = 7)

  val mnist = DatasetSpec("mnist", "MNIST", 6000, 96, "L4", 15, 2.0, 30.0, 0.0027,
    r = 16.0, k = 50, graphK = 20, vpVerify = false, seed = 104L,
    paperRatio = 0.34,
    miniFrac = 0.06, nMini = 3)

  val pamap2 = DatasetSpec("pamap2", "PAMAP2", 12000, 51, "L2", 20, 2.0, 30.0, 0.0049,
    r = 27.0, k = 100, graphK = 30, vpVerify = true, seed = 105L,
    paperRatio = 0.61,
    miniFrac = 0.08, nMini = 3)

  val sift = DatasetSpec("sift", "SIFT", 10000, 64, "L2", 25, 2.0, 30.0, 0.0083,
    r = 30.0, k = 40, graphK = 20, vpVerify = false, seed = 106L,
    paperRatio = 1.04,
    miniFrac = 0.06, nMini = 6)

  val words = DatasetSpec("words", "Words", 4000, 0, "Edit", 40, 0.0, 0.0, 0.033,
    r = 4.0, k = 15, graphK = 20, vpVerify = true, seed = 107L,
    paperRatio = 4.16,
    miniFrac = 0.06, nMini = 10)

  val all: Seq[DatasetSpec] = Seq(deep, glove, hepmass, mnist, pamap2, sift, words)

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(s"no dataset $name"))
}
