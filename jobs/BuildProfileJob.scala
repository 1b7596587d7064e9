package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{CountingSpace, LocalRunner, ParRunner, SparkRunner}
import repro.data.Datasets
import repro.graph.{KGraphBuilder, MRPG, NNDescent, NNDescentConfig, NSW}

/** Profiling entrypoint: builds each proximity graph for one dataset and
  * prints wall time, distance evaluations and MRPG step decomposition.
  * With `local` the builds run inline and no SparkSession is started.
  *
  * Usage: `runMain repro.jobs.BuildProfileJob <dataset> [scale] [local|spark]`
  */
object BuildProfileJob {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("deep")
    val scale = if (args.length > 1) args(1).toDouble else 1.0
    val useLocal = args.length > 2 && args(2) == "local"
    val spark = if (useLocal) None else Some(SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("BuildProfileJob")
      .getOrCreate())
    try {
      val spec = Datasets.byName(name)
      val space = new CountingSpace(spec.space(scale))
      val runner = spark.fold[ParRunner](new LocalRunner(16))(new SparkRunner(_))
      println(s"dataset=$name n=${space.n} K=${spec.graphK} runner=${if (useLocal) "local" else "spark"}")

      def prof(label: String)(body: => Any): Unit = {
        val c0 = space.evaluations
        val t0 = System.nanoTime()
        val res = body
        val ms = (System.nanoTime() - t0) / 1000000L
        println(f"$label%-12s ${ms}ms  dists=${(space.evaluations - c0) / 1e6}%.1fM  $res")
      }

      prof("NNDescent") {
        val cfg = NNDescentConfig(spec.graphK, vpInit = false, skipUnchanged = false, seed = spec.seed)
        s"iters=${NNDescent.build(space, cfg, runner).iterations}"
      }
      prof("NNDescent+") {
        val cfg = NNDescentConfig(spec.graphK, vpInit = true, skipUnchanged = true,
          exactListSize = 4 * spec.graphK, exactCount = MRPG.defaultExactCount(space.n), seed = spec.seed)
        s"iters=${NNDescent.build(space, cfg, runner).iterations}"
      }
      prof("KGraph") { KGraphBuilder.build(space, spec.graphK, runner, seed = spec.seed); "" }
      prof("MRPG") {
        val (_, st) = MRPG.build(space, spec.graphK, runner, seed = spec.seed)
        s"nn=${st.nnDescentMs} connect=${st.connectMs} detours=${st.removeDetoursMs} " +
          s"rmlinks=${st.removeLinksMs} iters=${st.iterations} " +
          s"+C=${st.linksAddedConnect} +D=${st.linksAddedDetours} -L=${st.linksRemoved}"
      }
      prof("NSW") { NSW.build(space, math.max(2, spec.graphK / 2), seed = spec.seed); "" }
    } finally spark.foreach(_.stop())
  }
}
