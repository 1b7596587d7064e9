package repro.jobs

import repro.core.{CountingSpace, GraphDOD, LinearScanCounter, LocalRunner, ParRunner, SparkRunner, VPTree, VPTreeCounter}
import repro.data.Datasets
import repro.graph.{KGraphBuilder, MRPG, NSW, ProximityGraph}

/** Profiling entrypoint: builds each proximity graph for one dataset and
  * prints wall time, distance evaluations and MRPG's [[MRPG.BuildStats]]
  * (step times, links, and the two bounded loops' reports), then one MRPG
  * detection at the dataset's `(r, k)` with its candidates, false
  * positives, the walk verdicts its verification read and the
  * Greedy-Counting walks its bound cut.
  * With `local` the builds run inline and no SparkSession is started;
  * otherwise they fan out through the [[JobSession]].
  *
  * Usage: `runMain repro.jobs.BuildProfileJob <dataset> [scale] [local|spark]`
  */
object BuildProfileJob {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("deep")
    val scale = if (args.length > 1) args(1).toDouble else 1.0
    if (args.length > 2 && args(2) == "local") profile(name, scale, new LocalRunner(16), "local")
    else JobSession("BuildProfileJob")(spark => profile(name, scale, new SparkRunner(spark), "spark"))
  }

  private def profile(name: String, scale: Double, runner: ParRunner, runnerName: String): Unit = {
    val spec = Datasets.byName(name)
    val space = new CountingSpace(spec.space(scale))
    println(s"dataset=$name n=${space.n} K=${spec.graphK} runner=$runnerName")

    def prof(label: String)(body: => Any): Unit = {
      val c0 = space.evaluations
      val t0 = System.nanoTime()
      val res = body
      val ms = (System.nanoTime() - t0) / 1000000L
      println(f"$label%-12s ${ms}ms  dists=${space.evaluations - c0}  $res")
    }

    // KGraph is plain NNDescent; MRPG's line splits out its NNDescent+ run
    prof("KGraph") { KGraphBuilder.build(space, spec.graphK, runner, seed = spec.seed); "" }
    var mrpg: ProximityGraph = null
    prof("MRPG") {
      val (g, st) = MRPG.build(space, spec.graphK, runner, seed = spec.seed)
      mrpg = g
      s"nn=${st.nnDescentMs} connect=${st.connectMs} detours=${st.removeDetoursMs} " +
        s"rmlinks=${st.removeLinksMs} iters=${st.iterations} " +
        s"+C=${st.linksAddedConnect} +D=${st.linksAddedDetours} -L=${st.linksRemoved} " +
        s"capHits=${st.detourCapHits} unreached=${st.connectUnreached}"
    }
    prof("NSW") { NSW.build(space, math.max(2, spec.graphK / 2), seed = spec.seed); "" }
    // the verifier's index is built outside the measured line, as in the tables
    val counter =
      if (spec.vpVerify) VPTreeCounter(VPTree.build(space, capacity = 32, seed = spec.seed)) else LinearScanCounter()
    prof("detect") {
      val res = GraphDOD.run(runner, space, mrpg, spec.r, spec.k, counter)
      s"MRPG r=${spec.r} k=${spec.k} outliers=${res.outliers.length} candidates=${res.candidates} " +
        s"falsePos=${res.falsePositives} direct=${res.directOutliers} reused=${res.reusedVerdicts} cutWalks=${res.cutWalks}"
    }
  }
}
