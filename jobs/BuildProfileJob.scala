package repro.jobs

import repro.core.{CountingSpace, LocalRunner, ParRunner, SparkRunner}
import repro.data.Datasets
import repro.graph.{KGraphBuilder, MRPG, NSW}

/** Profiling entrypoint: builds each proximity graph for one dataset and
  * prints wall time, distance evaluations and MRPG step decomposition.
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
    prof("MRPG") {
      val (_, st) = MRPG.build(space, spec.graphK, runner, seed = spec.seed)
      s"nn=${st.nnDescentMs} connect=${st.connectMs} detours=${st.removeDetoursMs} " +
        s"rmlinks=${st.removeLinksMs} iters=${st.iterations} " +
        s"+C=${st.linksAddedConnect} +D=${st.linksAddedDetours} -L=${st.linksRemoved}"
    }
    prof("NSW") { NSW.build(space, math.max(2, spec.graphK / 2), seed = spec.seed); "" }
  }
}
