package repro.tables

import org.apache.spark.sql.SparkSession
import repro.baseline.{DetectionResult, Dolphin, SNIF, ScanDOD}
import repro.core._
import repro.data.{DatasetSpec, Datasets}
import repro.graph.{KGraphBuilder, MRPG, NSW, ProximityGraph}
import scala.collection.mutable

/** Lazily-built, memoized state for one dataset at one scale: the in-memory
  * space, the offline indexes (VP-tree, the four proximity graphs with build
  * times), the ground-truth outlier set, and each algorithm's DOD run.
  * Everything is computed at most once per JVM so all table harnesses share
  * one set of measurements (as in the paper, indexes are built offline once
  * and reused across experiments).
  *
  * Detection runs are measured both in wall-clock (the paper's metric) and
  * in *distance evaluations* via [[CountingSpace]] — at our reduced scale
  * Spark's fixed per-job overhead (6.7–10.1 ms for an empty 4-chunk job on
  * 4 cores in `local[4]`; DESIGN.md, "Spark mapping") weighs on sub-second
  * wall times, while distance counts expose the algorithmic cost the paper
  * analyzes.
  */
final class DatasetState(val spec: DatasetSpec, spark: SparkSession, scale: Double) {
  import DatasetState.Counted

  val runner = new SparkRunner(spark)

  private def timed[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val res = body
    (res, (System.nanoTime() - t0) / 1000000L)
  }

  lazy val countingSpace: CountingSpace = new CountingSpace(spec.space(scale))
  def space: MetricSpace = countingSpace

  lazy val vpTree: VPTree = VPTree.build(space, capacity = 32, seed = spec.seed)

  /** Exact-Counting backend (§4): VP-tree for low intrinsic dimensionality
    * datasets, linear scan otherwise.
    */
  lazy val counter: ExactCounter =
    if (spec.vpVerify) VPTreeCounter(vpTree) else LinearScanCounter()

  /** Ground truth (driver-side nested loop). */
  lazy val truth: Array[Int] = BruteForce.outliers(space, spec.r, spec.k)
  lazy val outlierRatio: Double = 100.0 * truth.length / space.n

  /** Measures `body`'s distance evaluations; all lazily-built inputs the
    * body depends on must be forced by the caller first.
    */
  private def counted[T](body: => T): Counted[T] = {
    val c0 = countingSpace.evaluations
    val res = body
    Counted(res, countingSpace.evaluations - c0)
  }

  // ---- proximity graphs (offline pre-processing, Table 3/4) -------------

  final case class GraphBundle(graph: ProximityGraph, buildMs: Long, stats: Option[MRPG.BuildStats])

  private val graphCache = mutable.LinkedHashMap.empty[String, GraphBundle]

  def graph(name: String): GraphBundle = graphCache.getOrElseUpdate(name, {
    val ((g, stats), ms) = timed(name match {
      case "NSW" => (NSW.build(space, f = math.max(2, spec.graphK / 2), seed = spec.seed), None)
      case "KGraph" => (KGraphBuilder.build(space, spec.graphK, runner, seed = spec.seed), None)
      case "MRPG-basic" | "MRPG" =>
        val (g, st) = MRPG.build(space, spec.graphK, runner, seed = spec.seed, basic = name == "MRPG-basic")
        (g, Some(st))
      case other => throw new IllegalArgumentException(s"unknown graph: $other")
    })
    GraphBundle(g, ms, stats)
  })

  // ---- DOD runs (Table 5/6/7/8) -----------------------------------------

  private val dodCache = mutable.LinkedHashMap.empty[String, Counted[DODResult]]

  /** Graph-based DOD run: NSW/KGraph use plain Algorithm 2 (no pivot hops)
    * and no exact-list shortcut, per the paper's §6 setup; MRPG-basic adds
    * pivot hops; MRPG adds the §5.5 direct decision.
    */
  private def dodRun(name: String): Counted[DODResult] = dodCache.getOrElseUpdate(name, {
    val b = graph(name) // force the offline build outside the measurement
    val ec = counter
    val pivotHop = name.startsWith("MRPG")
    val shortcut = name == "MRPG"
    counted(GraphDOD.run(runner, space, b.graph, spec.r, spec.k,
      usePivotHop = pivotHop, useExactShortcut = shortcut, counter = ec))
  })

  def dod(name: String): DODResult = dodRun(name).value

  private val detectionCache = mutable.LinkedHashMap.empty[String, Counted[DetectionResult]]

  /** One of [[DatasetState.Algorithms]] run on this dataset at its default
    * `(r, k)`, with the size of the index it reads. Offline builds (VP-tree,
    * graphs) are forced outside the distance measurement.
    */
  def detection(alg: String): Counted[DetectionResult] = detectionCache.getOrElseUpdate(alg, alg match {
    case "Nested-loop" => counted(ScanDOD.run(runner, space, spec.r, spec.k, LinearScanCounter()))
    case "SNIF" => counted(SNIF.run(runner, space, spec.r, spec.k, seed = spec.seed))
    case "DOLPHIN" => counted(Dolphin.run(runner, space, spec.r, spec.k, seed = spec.seed))
    case "VP-tree" =>
      val ec = VPTreeCounter(vpTree) // offline build, outside the measurement
      counted(ScanDOD.run(runner, space, spec.r, spec.k, ec))
    case g =>
      val Counted(d, dists) = dodRun(g)
      Counted(DetectionResult(d.outliers, d.totalMs, graph(g).graph.sizeBytes), dists)
  })
}

object DatasetState {
  /** A run result annotated with the distance evaluations it consumed. */
  final case class Counted[T](value: T, dists: Long)

  /** The four proximity graphs, in Table 3's column order. */
  val GraphNames: Seq[String] = Seq("NSW", "KGraph", "MRPG-basic", "MRPG")

  /** All eight DOD algorithms, in Table 5's column order. */
  val Algorithms: Seq[String] = Seq("Nested-loop", "SNIF", "DOLPHIN", "VP-tree") ++ GraphNames
}

/** JVM-wide registry so every table harness (bench suite or job) shares one
  * set of datasets, indexes and measurements.
  */
object BenchContext {
  val DefaultScale: Double =
    sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  private val cache = mutable.LinkedHashMap.empty[(String, Double), DatasetState]
  private var warmed = false

  /** One small throwaway build/detect cycle per JVM before any timed build,
    * on the first dataset of each metric: the paper's C++ has no JIT, ours
    * does — without this the first dataset absorbs all compilation time and
    * Table 3 skews, and the first dataset of a metric (Table 4's Glove, the
    * only Angular one) absorbs its kernel's.
    */
  private def warmup(spark: SparkSession): Unit =
    if (!warmed) {
      warmed = true
      val runner = new SparkRunner(spark)
      for (spec <- Datasets.all.distinctBy(_.metric)) {
        val space = spec.space(0.08)
        NSW.build(space, 6, seed = 1)
        KGraphBuilder.build(space, 10, runner, seed = 1, maxIters = 4)
        val (g, _) = MRPG.build(space, 10, runner, seed = 1, maxIters = 4)
        GraphDOD.run(runner, space, g, spec.r, spec.k)
      }
    }

  def state(spark: SparkSession, spec: DatasetSpec, scale: Double): DatasetState =
    synchronized {
      warmup(spark)
      cache.getOrElseUpdate((spec.name, scale), new DatasetState(spec, spark, scale))
    }

  def allStates(spark: SparkSession, scale: Double = DefaultScale): Seq[DatasetState] =
    Datasets.all.map(state(spark, _, scale))
}

/** Plain-text table rendering shared by jobs and bench suites. */
object TableFmt {
  def render(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  def sec(v: Long): String = f"${v / 1000.0}%.2f"
  def mb(bytes: Long): String = f"${bytes / 1048576.0}%.2f"
  def mdist(v: Long): String = f"${v / 1e6}%.2f"
}
