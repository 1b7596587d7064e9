package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.ProximityGraph

/** Exact neighbor counting for the verification phase (`Exact-Counting` in
  * Algorithm 1): a linear scan for high-dimensional data, a VP-tree range
  * count for data with low intrinsic dimensionality. Both stop at `k`.
  */
sealed trait ExactCounter extends Serializable {
  def count(space: MetricSpace, p: Int, r: Double, k: Int): Int
  def name: String
  def sizeBytes: Long
}

final case class LinearScanCounter() extends ExactCounter {
  def count(space: MetricSpace, p: Int, r: Double, k: Int): Int =
    BruteForce.countNeighbors(space, p, r, k)
  def name = "linear-scan"
  def sizeBytes = 0L
}

final case class VPTreeCounter(tree: VPTree) extends ExactCounter {
  def count(space: MetricSpace, p: Int, r: Double, k: Int): Int =
    tree.rangeCount(space, p, r, k)
  def name = "vp-tree"
  def sizeBytes: Long = tree.sizeBytes
}

/** Result of one DOD run.
  *
  * @param outliers       detected outlier ids (sorted)
  * @param candidates     |P'| — objects that survived filtering (excludes
  *                       exact-list direct decisions)
  * @param falsePositives inliers among the candidates (Table 7's `f`)
  * @param directOutliers outliers decided by the exact-list shortcut (§5.5)
  * @param filterMs       filtering phase wall-clock [ms]
  * @param verifyMs       verification phase wall-clock [ms]
  */
final case class DODResult(
    outliers: Array[Int],
    candidates: Int,
    falsePositives: Int,
    directOutliers: Int,
    filterMs: Long,
    verifyMs: Long,
) {
  def totalMs: Long = filterMs + verifyMs
}

/** Algorithm 1: proximity-graph-based DOD — filtering by Greedy-Counting,
  * then exact verification of the candidates. Exact for any proximity graph
  * (Lemma 1: filtering has no false negatives).
  */
object GraphDOD {

  // per-object filtering verdicts
  private val Inlier = 0: Byte // filtered: proven inlier
  private val Candidate = 1: Byte // needs verification
  private val DirectOutlier = 2: Byte // exact-list shortcut says outlier
  private val DirectInlier = 3: Byte // exact-list shortcut says inlier

  /** One object's filtering verdict (§4 filtering phase + §5.5 shortcut). */
  def filterVerdict(
      space: MetricSpace,
      g: ProximityGraph,
      p: Int,
      r: Double,
      k: Int,
      usePivotHop: Boolean,
      useExactShortcut: Boolean,
  ): Byte = {
    if (useExactShortcut && g.hasExactList(p) && k <= g.exactK) {
      val c = GreedyCounting.countExactList(space, g.exactLists(p), p, r, k)
      if (c < k) DirectOutlier else DirectInlier
    } else {
      val c = GreedyCounting.count(space, g, p, r, k, usePivotHop)
      if (c < k) Candidate else Inlier
    }
  }

  /** Algorithm 1 over a [[ParRunner]]: the filtering phase fans every object
    * out (in random chunks, as the paper assigns objects to threads), the
    * verification phase fans out the candidates. Space, graph and counter
    * reach the chunks through the runner's shared data. Requires `k >= 1`
    * and `r >= 0` (not NaN).
    */
  def run(
      runner: ParRunner,
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
      usePivotHop: Boolean = true,
      useExactShortcut: Boolean = true,
      counter: ExactCounter = LinearScanCounter(),
  ): DODResult = {
    require(k >= 1, s"k must be at least 1, got $k")
    require(r >= 0, s"r must be a non-negative number, got $r")
    val ids = Array.range(0, space.n)
    val t0 = System.nanoTime()
    val verdicts = runner.mapIds(ids, (space, g)) { case ((sp, gg), p) =>
      filterVerdict(sp, gg, p, r, k, usePivotHop, useExactShortcut)
    }
    val t1 = System.nanoTime()
    val candidates = ids.filter(verdicts(_) == Candidate)
    val directOut = ids.filter(verdicts(_) == DirectOutlier)
    val verified = runner.select(candidates, (space, counter)) { case ((sp, ec), p) =>
      ec.count(sp, p, r, k) < k
    }
    val t2 = System.nanoTime()
    DODResult(
      (directOut ++ verified).sorted,
      candidates = candidates.length,
      falsePositives = candidates.length - verified.length,
      directOutliers = directOut.length,
      filterMs = (t1 - t0) / 1000000L,
      verifyMs = (t2 - t1) / 1000000L,
    )
  }

  /** Driver-local run (no Spark) — used by property tests and as the
    * reference the Spark run must match.
    */
  def detectLocal(
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
      usePivotHop: Boolean = true,
      useExactShortcut: Boolean = true,
      counter: ExactCounter = LinearScanCounter(),
  ): DODResult =
    run(new LocalRunner(), space, g, r, k, usePivotHop, useExactShortcut, counter)

  /** Spark run: the paper's multi-threading (§4) with `partitions` chunks
    * (default: the session's parallelism) as threads.
    */
  def detect(
      spark: SparkSession,
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
      usePivotHop: Boolean = true,
      useExactShortcut: Boolean = true,
      counter: ExactCounter = LinearScanCounter(),
      partitions: Int = 0,
  ): DODResult =
    run(new SparkRunner(spark, partitions), space, g, r, k, usePivotHop, useExactShortcut, counter)

  /** DataFrame wrapper: detected outlier ids as a single-column DataFrame
    * (`id: bigint`) for oracle diffs and spark-submit jobs.
    */
  def detectDF(
      spark: SparkSession,
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
  ): DataFrame = {
    import spark.implicits._
    detect(spark, space, g, r, k).outliers.map(_.toLong).toSeq.toDF("id")
  }
}
