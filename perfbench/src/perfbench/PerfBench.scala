package perfbench

import java.util.concurrent.{Callable, Executors}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{DatasetSpec, Datasets}
import repro.graph.{MRPG, ProximityGraph}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random

/** One benchmark workload: a dataset at a fixed scale and the (r, k) grid
  * of exact detections run on each freshly built MRPG.
  */
final case class Workload(
    name: String,
    spec: DatasetSpec,
    scale: Double,
    rs: Seq[Double],
    ks: Seq[Int],
) {
  def grid: Seq[(Double, Int)] = for (r <- rs; k <- ks) yield (r, k)
}

object Workloads {
  val all: Seq[Workload] = Seq(
    // build-bound: one MRPG build over 8k 32-d L2 vectors (half scale, so
    // that two warm-up cycles and the timed cycles fit the run budget), and
    // a 6-query grid
    Workload("deep-build", Datasets.deep, 0.5, Seq(20.0, 22.0, 24.0), Seq(20, 50)),
    // sweep-bound: 4k words under edit distance, VP-tree verification, 12
    // queries
    Workload("words-sweep", Datasets.words, 1.0, Seq(3.0, 4.0, 5.0), Seq(5, 10, 15, 20)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

/** Brute-force neighbour counts per r, capped at the grid's largest k, on
  * the unwrapped space so they do not touch the distance counter.
  */
final class Truth(counts: Map[Double, Array[Int]]) {
  def outliers(r: Double, k: Int): Array[Int] = {
    val c = counts(r)
    (0 until c.length).filter(c(_) < k).toArray
  }
}

object Truth {
  def compute(base: MetricSpace, rs: Seq[Double], kMax: Int, threads: Int): Truth = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val counts = rs.map { r =>
        val c = new Array[Int](base.n)
        val tasks = (0 until threads).map { t =>
          new Callable[Unit] {
            def call(): Unit = {
              var p = t
              while (p < base.n) {
                c(p) = BruteForce.countNeighbors(base, p, r, kMax)
                p += threads
              }
            }
          }
        }
        pool.invokeAll(tasks.asJava).asScala.foreach(_.get())
        r -> c
      }.toMap
      new Truth(counts)
    } finally {
      pool.shutdown()
    }
  }
}

/** Everything a cycle needs, fixed after set-up. The run's seed orders the
  * grid's queries; the dataset and the build keep the workload's fixed
  * seed, so that distance counts and index size repeat exactly.
  */
final class Env(
    val spark: SparkSession,
    val wl: Workload,
    val base: MetricSpace,
    val parts: Int,
    val seed: Long,
) {
  val spec: DatasetSpec = wl.spec
  val grid: Seq[(Double, Int)] = new Random(seed).shuffle(wl.grid)
  val counting = new CountingSpace(base)
  val runner = new SparkRunner(spark, parts)

  /** Exact-Counting backend, built once over the unwrapped space: a VP-tree
    * where the dataset calls for one, a linear scan otherwise.
    */
  val counter: ExactCounter =
    if (spec.vpVerify) VPTreeCounter(VPTree.build(base, capacity = 32, seed = spec.seed))
    else LinearScanCounter()

  def build(): (ProximityGraph, MRPG.BuildStats) =
    MRPG.build(counting, spec.graphK, runner, seed = spec.seed)

  def detect(g: ProximityGraph, r: Double, k: Int): DODResult =
    GraphDOD.detect(spark, counting, g, r, k, counter = counter, partitions = parts)

  def indexBytes(g: ProximityGraph): Long = g.sizeBytes + counter.sizeBytes
}

/** One pass of `GraphDOD.detect` over the grid; `time` sums the calls. */
final case class Sweep(time: Timing, dists: Long, queries: Int, wrong: Int)

/** One `MRPG.build` followed by a sweep of the grid. */
final case class Cycle(build: Timing, buildDists: Long, indexBytes: Long, sweep: Sweep) {
  def total: Timing = build + sweep.time
}

/** A metric as printed: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Benchmark harness: builds an MRPG and runs an (r, k) grid of exact
  * detections per cycle, checks every outlier set against brute force, and
  * prints the end-to-end metrics (or, with `--trace 1`, the per-layer
  * metrics of a step-by-step replay) as one JSON line prefixed with
  * `PERFBENCH_RESULT`.
  *
  * Usage: `PerfBench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --master local[N] --work-dir <dir>`
  */
object PerfBench {

  /** Untimed full-size cycles before timing starts. */
  val WarmupCycles = 2

  /** Detection queries before timing starts, counting those of warm-up cycles. */
  val WarmupQueries = 36

  /** Timed cycles per run, at least, however short `--seconds` is. */
  val MinCycles = 3

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      master: String,
      workDir: String,
  )

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String =
      kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") == "1",
      get("master"), get("work-dir"))
  }

  def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  private val LocalN = """local\[(\d+)\]""".r

  def startSpark(master: String, parts: Int, workDir: String): SparkSession =
    SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", parts.toString)
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()

  def stopSpark(spark: SparkSession): Unit = {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parseArgs(argv))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          2
      }
    sys.exit(code)
  }

  def run(a: Args): Int = {
    val wl = Workloads.byName(a.workload)
    val spec = wl.spec
    val parts = a.master match {
      case LocalN(n) => n.toInt
      case other => throw new IllegalArgumentException(s"master must be local[N], got $other")
    }

    // ---- set-up: from JVM start to Spark up and the dataset in memory ----
    val host0 = HostTicks.read()
    val spark = startSpark(a.master, parts, a.workDir)
    val base = spec.space(spark, wl.scale)
    val setupWallS = (System.currentTimeMillis() - Jvm.startMs) / 1e3
    val setupCpuS = Jvm.cpuNs / 1e9
    // the stolen share is taken from main's start on: the JVM's own start-up
    // before it is a small part of the interval
    val setupS = Timing.unstolen(setupWallS, host0, HostTicks.read())
    log(f"${wl.name}: n=${base.n} K=${spec.graphK} grid=${wl.grid.size} queries, " +
      f"master=${a.master}, set-up $setupWallS%.3f s wall, $setupS%.3f s unstolen, $setupCpuS%.3f s cpu")

    try {
      val counters = new JobCounters
      spark.sparkContext.addSparkListener(counters)
      val env = new Env(spark, wl, base, parts, a.seed)

      val tT = System.nanoTime()
      val truth = Truth.compute(base, wl.rs, wl.ks.max, parts)
      val truthS = (System.nanoTime() - tT) / 1e9
      log(f"brute-force truth for ${wl.rs.size} r values: $truthS%.3f s")

      // Untimed warm-up: full-size cycles (the first full builds in a JVM run
      // partly interpreted and are much slower than later ones), then extra
      // sweeps until WarmupQueries detections have run, because detection
      // warms more slowly than the build.
      val warmCycles = (0 until WarmupCycles).map { i =>
        val (c, g) = cycle(env, truth)
        log(f"warm-up cycle ${i + 1}: build ${c.build.wallS}%.3f s, sweep ${c.sweep.time.wallS}%.3f s (wall)")
        (c, g)
      }
      val extraSweeps = math.max(0, WarmupQueries / wl.grid.size - WarmupCycles)
      val warmSweeps = warmCycles.map(_._1.sweep) ++
        (0 until extraSweeps).map(_ => sweep(env, warmCycles.last._2, truth))

      if (a.trace) {
        val tracer = new Tracer(spark.sparkContext, env.counting, counters)
        val rep = new Trace(env, truth, tracer).run(truthS, setupWallS)
        val failed = rep.failed + warmSweeps.map(_.wrong).sum
        val ok = failed == 0 && rep.reproduced
        emit(ok, rep.attempted + warmSweeps.map(_.queries).sum, failed, rep.metrics)
        if (ok) 0 else 1
      } else {
        val cycles = ArrayBuffer.empty[Cycle]
        val deadline = System.nanoTime() + a.seconds * 1000000000L
        while (cycles.size < MinCycles || System.nanoTime() < deadline) {
          val c = cycle(env, truth)._1
          log(f"cycle ${cycles.size + 1}: build ${c.build.wallS}%.3f s wall, " +
            f"${c.build.unstolenS}%.3f s unstolen, ${c.build.cpuS}%.3f s cpu, " +
            f"${c.buildDists / 1e6}%.3fM dists; sweep ${c.sweep.time.wallS}%.3f s wall, " +
            f"${c.sweep.time.unstolenS}%.3f s unstolen, ${c.sweep.time.cpuS}%.3f s cpu, " +
            f"${c.sweep.dists / 1e6}%.3fM dists")
          cycles += c
        }
        val builds = warmCycles.map(_._1) ++ cycles
        val sweeps = warmSweeps ++ cycles.map(_.sweep)
        val steadyCounts = builds.map(c => (c.buildDists, c.indexBytes)).distinct.size == 1 &&
          sweeps.map(_.dists).distinct.size == 1
        if (!steadyCounts) log("FAIL: distance counts or index size differ between cycles")
        val attempted = sweeps.map(_.queries).sum
        val failed = sweeps.map(_.wrong).sum
        if (failed > 0) log(s"FAIL: $failed of $attempted outlier sets differ from brute force")
        def med(f: Cycle => Double) = Stats.median(cycles.map(f).toSeq)
        val metrics = Seq(
          Metric("setup_s", setupS, "s"),
          Metric("build_s", med(_.build.unstolenS), "s"),
          Metric("sweep_s", med(_.sweep.time.unstolenS), "s"),
          Metric("total_s", med(_.total.unstolenS), "s"),
          Metric("build_dists_M", med(_.buildDists.toDouble) / 1e6, "M"),
          Metric("detect_dists_M", med(_.sweep.dists.toDouble) / 1e6, "M"),
          Metric("index_mb", med(_.indexBytes.toDouble) / 1048576.0, "MiB"),
        )
        val ok = failed == 0 && steadyCounts
        emit(ok, attempted, failed, metrics)
        if (ok) 0 else 1
      }
    } finally {
      stopSpark(spark)
    }
  }

  /** One build followed by a sweep of the grid; returns the graph too. */
  def cycle(env: Env, truth: Truth): (Cycle, ProximityGraph) = {
    val c0 = env.counting.evaluations
    val ((g, _), t) = Timing(env.build())
    val buildDists = env.counting.evaluations - c0
    (Cycle(t, buildDists, env.indexBytes(g), sweep(env, g, truth)), g)
  }

  /** `GraphDOD.detect` for every (r, k) of the grid, checked against truth. */
  def sweep(env: Env, g: ProximityGraph, truth: Truth): Sweep = {
    val c0 = env.counting.evaluations
    var time = Timing.zero
    var wrong = 0
    for ((r, k) <- env.grid) {
      val (res, t) = Timing(env.detect(g, r, k))
      time += t
      if (!java.util.Arrays.equals(res.outliers, truth.outliers(r, k))) {
        log(s"WRONG outlier set at r=$r k=$k")
        wrong += 1
      }
    }
    Sweep(time, env.counting.evaluations - c0, env.grid.size, wrong)
  }

  def emit(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): Unit = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    println(s"""PERFBENCH_RESULT {"correct": $correct, "attempted": $attempted, """ +
      s""""failed": $failed, "metrics": {${ms.mkString(", ")}}}""")
  }
}
