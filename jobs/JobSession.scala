package repro.jobs

import org.apache.spark.sql.SparkSession

/** The session a job's `main` runs in. A session already running in this
  * JVM (a test suite, a notebook, spark-shell) is reused and left running;
  * otherwise one is started on `SPARK_MASTER` (default `local[*]`) and
  * stopped when `body` returns.
  */
object JobSession {
  def apply[T](appName: String)(body: SparkSession => T): T =
    SparkSession.getActiveSession.orElse(SparkSession.getDefaultSession)
      .filter(!_.sparkContext.isStopped) match {
      case Some(running) => body(running)
      case None =>
        val spark = SparkSession.builder
          .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
          .appName(appName)
          .getOrCreate()
        try body(spark) finally spark.stop()
    }
}
