package perfbench

import repro.core._
import repro.graph._
import scala.collection.mutable
import scala.util.Random

/** Per-layer numbers of one traced run. */
final case class TraceReport(
    metrics: Seq[Metric],
    attempted: Int,
    failed: Int,
    reproduced: Boolean,
)

/** The traced pass: one untraced reference `MRPG.build`, then the same build
  * replayed one public step at a time with the configuration, seeds and
  * adjacency glue `MRPG.build` uses, then every grid query through both
  * `GraphDOD.detect` and `GraphDOD.detectLocal`. Each call is wrapped in a
  * span (wall time, distance evaluations, GC and allocation, Spark jobs).
  */
final class Trace(env: Env, truth: Truth, tracer: Tracer) {
  import PerfBench.log

  private val n = env.base.n
  private val k = env.spec.graphK
  private val seed = env.spec.seed
  private val kPrime = MRPG.KPrimeFactor * k

  /** The NNDescent+ configuration `MRPG.build` derives (non-basic MRPG). */
  private val cfg = NNDescentConfig(
    K = k,
    vpInit = true,
    skipUnchanged = true,
    exactListSize = kPrime,
    exactCount = MRPG.defaultExactCount(n),
    maxIters = 10,
    seed = seed,
  )

  private def sameGraph(a: ProximityGraph, b: ProximityGraph): Boolean = {
    def sameRows(x: Array[Array[Int]], y: Array[Array[Int]]): Boolean =
      (x == null && y == null) || (x != null && y != null && x.length == y.length &&
        x.indices.forall(i => java.util.Arrays.equals(x(i), y(i))))
    a.exactK == b.exactK && java.util.Arrays.equals(a.isPivot, b.isPivot) &&
      sameRows(a.adj, b.adj) && sameRows(a.exactLists, b.exactLists)
  }

  def run(bruteForceS: Double, setupWallS: Double): TraceReport = {
    val counting = env.counting
    val runner = env.runner

    // ---- untraced reference build ---------------------------------------
    val ((ref, refStats), refSpan) = tracer.span("mrpg.build") { env.build() }
    val buildRefS = refSpan.wallS
    // share of the reference build outside MRPG.build's own four step timers
    val unaccounted = (buildRefS - refStats.totalMs / 1e3) / buildRefS

    // ---- the same build, one step at a time -----------------------------
    val (aknn, nnd) = tracer.span("nndescent") { NNDescent.build(counting, cfg, runner) }
    val ((adj, isExact), glue) = tracer.span("glue") {
      val isExact = new Array[Boolean](n)
      if (aknn.exactLists != null) {
        var v = 0
        while (v < n) { if (aknn.exactLists(v) != null) isExact(v) = true; v += 1 }
      }
      val adj = new Array[mutable.LinkedHashSet[Int]](n)
      var v = 0
      while (v < n) {
        val base = if (isExact(v)) aknn.exactLists(v) else aknn.nbrId(v)
        adj(v) = mutable.LinkedHashSet.from(base.iterator.filter(_ != v))
        v += 1
      }
      (adj, isExact)
    }
    val (connectLinks, connect) = tracer.span("connect") {
      ConnectSubgraphs.run(counting, adj, aknn.isPivot, isExact, seed ^ 0x5DEECE66DL)
    }
    val (detourLinks, detours) = tracer.span("detours") {
      RemoveDetours.run(counting, adj, aknn.isPivot, isExact, k, runner, seed + 101)
    }
    val (removed, rmlinks) = tracer.span("rmlinks") {
      RemoveLinks.run(adj, aknn.isPivot, isExact)
    }
    val replayed =
      new ProximityGraph(adj.map(_.toArray), aknn.isPivot, aknn.exactLists, math.min(kPrime, n - 1))
    val reproduced = sameGraph(ref, replayed)
    if (!reproduced) log("FAIL: the step-by-step replay did not reproduce MRPG.build's graph")

    val tracedS = Seq(nnd, glue, connect, detours, rmlinks).map(_.wallS).sum
    log(f"build: untraced $buildRefS%.3f s, traced $tracedS%.3f s (of which glue ${glue.wallS}%.3f s)")

    // ---- NNDescent+ without Spark, and the exact K'-NN stage alone ------
    val (_, nndLocal) = tracer.span("nndescent.local") {
      NNDescent.build(counting, cfg, new LocalRunner(env.parts))
    }
    val targets = (0 until n).filter(v => aknn.exactLists != null && aknn.exactLists(v) != null)
    val kk = math.min(cfg.exactListSize, n - 1)
    val (exactOk, exactKnn) = tracer.span("exact_knn") {
      targets.forall(v => java.util.Arrays.equals(BruteForce.knn(counting, v, kk), aknn.exactLists(v)))
    }
    if (!exactOk) log("FAIL: replayed exact K'-NN lists differ from NNDescent+'s")

    val nsPerEval = kernelNs()

    // ---- detection: Spark, then local, then a filter-only replay ---------
    // GC and allocation are taken over this whole phase: the Spark sweep
    // alone often ends before the first young collection.
    var attempted = 0
    var failed = 0
    var filterMs = 0L; var verifyMs = 0L
    var localVerifyMs = 0L
    var candidates = 0L; var direct = 0L; var falsePos = 0L
    var filterDists = 0L; var localDists = 0L
    val (_, detection) = tracer.span("detection") {
      env.grid.foreach { case (r, kq) =>
        val expected = truth.outliers(r, kq)
        val (res, _) = tracer.span("detect") { env.detect(ref, r, kq) }
        val (loc, locSpan) = tracer.span("detectLocal") {
          GraphDOD.detectLocal(counting, ref, r, kq, counter = env.counter)
        }
        val (_, filt) = tracer.span("filter.local") {
          var p = 0
          while (p < n) {
            GraphDOD.filterVerdict(counting, ref, p, r, kq, usePivotHop = true, useExactShortcut = true)
            p += 1
          }
        }
        for (out <- Seq(res.outliers, loc.outliers)) {
          attempted += 1
          if (!java.util.Arrays.equals(out, expected)) {
            log(s"WRONG outlier set at r=$r k=$kq")
            failed += 1
          }
        }
        filterMs += res.filterMs; verifyMs += res.verifyMs
        localVerifyMs += loc.verifyMs
        candidates += res.candidates; direct += res.directOutliers; falsePos += res.falsePositives
        filterDists += filt.dists; localDists += locSpan.dists
      }
    }
    val detect = tracer.total("detect")
    val filterLocal = tracer.total("filter.local")
    val verifyDists = localDists - filterDists

    // ---- fixed Spark cost: an empty fan-out over detect's payload --------
    val payload = (counting, ref, env.counter)
    val noop = (0 until 5).map { _ =>
      tracer.span("fanout.noop") {
        runner.runWithData(n, payload)((_, s, e) => e - s)
      }._2.wallS
    }

    val useful = if (candidates == 0) 1.0 else (candidates - falsePos).toDouble / candidates
    val metrics = Seq(
      Metric("kernel.ns_per_eval", nsPerEval, "ns"),
      Metric("nndescent.s", nnd.wallS, "s"),
      Metric("nndescent.local_s", nndLocal.wallS, "s"),
      Metric("nndescent.dists_M", nnd.distsM, "M"),
      Metric("nndescent.iters", aknn.iterations.toDouble, "count"),
      Metric("nndescent.spark_jobs", nnd.jobs.toDouble, "count"),
      Metric("nndescent.alloc_mb", nnd.allocMB, "MiB"),
      Metric("exact_knn.s", exactKnn.wallS, "s"),
      Metric("exact_knn.dists_M", exactKnn.distsM, "M"),
      Metric("connect.s", connect.wallS, "s"),
      Metric("connect.dists_M", connect.distsM, "M"),
      Metric("connect.links", connectLinks.toDouble, "count"),
      Metric("detours.s", detours.wallS, "s"),
      Metric("detours.dists_M", detours.distsM, "M"),
      Metric("detours.links", detourLinks.toDouble, "count"),
      Metric("detours.alloc_mb", detours.allocMB, "MiB"),
      Metric("rmlinks.s", rmlinks.wallS, "s"),
      Metric("rmlinks.links", removed.toDouble, "count"),
      Metric("filter.s", filterMs / 1e3, "s"),
      Metric("filter.local_s", filterLocal.wallS, "s"),
      Metric("filter.dists_M", filterDists / 1e6, "M"),
      Metric("filter.candidates", candidates.toDouble, "count"),
      Metric("filter.direct", direct.toDouble, "count"),
      Metric("verify.s", verifyMs / 1e3, "s"),
      Metric("verify.local_s", localVerifyMs / 1e3, "s"),
      Metric("verify.dists_M", verifyDists / 1e6, "M"),
      Metric("verify.false_pos", falsePos.toDouble, "count"),
      Metric("verify.useful_ratio", useful, "ratio"),
      Metric("fanout.noop_s", Stats.median(noop), "s"),
      Metric("spark.jobs", detect.jobs.toDouble, "count"),
      Metric("spark.task_busy_s", detect.taskBusyS, "s"),
      Metric("spark.shuffle_mb", detect.shuffleMB, "MiB"),
      Metric("gc.build_s", refSpan.gcS, "s"),
      Metric("gc.sweep_s", detection.gcS, "s"),
      Metric("alloc.build_mb", refSpan.allocMB, "MiB"),
      Metric("alloc.sweep_mb", detection.allocMB, "MiB"),
      Metric("bruteforce.s", bruteForceS, "s"),
      Metric("setup.wall_s", setupWallS, "s"),
      Metric("trace.build_s", buildRefS, "s"),
      Metric("trace.sweep_s", detect.wallS, "s"),
      Metric("trace.unaccounted_frac", unaccounted, "ratio"),
      Metric("trace.overhead_s", tracedS - buildRefS, "s"),
    )
    TraceReport(metrics, attempted, failed, reproduced && exactOk)
  }

  /** Median ns per `dist` call of the unwrapped space over 100k pairs drawn
    * with the run's seed, after two untimed passes.
    */
  private def kernelNs(): Double = {
    val pairs = 100000
    val rng = new Random(env.seed)
    val a = Array.fill(pairs)(rng.nextInt(n))
    val b = Array.fill(pairs)(rng.nextInt(n))
    val base = env.base
    var sink = 0.0
    val passes = (0 until 7).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < pairs) { sink += base.dist(a(i), b(i)); i += 1 }
      (System.nanoTime() - t0).toDouble / pairs
    }
    if (sink.isNaN) log("kernel sample produced NaN")
    Stats.median(passes.drop(2))
  }
}
