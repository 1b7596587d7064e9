package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.{BenchContext, TableFmt, Tables}

/** Shared main-method plumbing for the per-table spark-submit entrypoints.
  *
  * Usage: `spark-submit --class repro.jobs.Table5Job repro.jar [scale]`
  * where `scale` multiplies each dataset's bench cardinality (default 1.0,
  * or env `BENCH_SCALE`).
  */
trait TableJob {
  def table(spark: SparkSession, scale: Double): (String, Seq[String], Seq[Seq[String]])

  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(BenchContext.DefaultScale)
    JobSession(getClass.getSimpleName.stripSuffix("$")) { spark =>
      val (title, headers, rows) = table(spark, scale)
      println(TableFmt.render(title, headers, rows))
    }
  }
}

object Table1Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table1(spark, scale)
}

object Table2Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table2(spark, scale)
}

object Table3Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table3(spark, scale)
}

object Table4Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table4(spark, scale)
}

object Table5Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = {
    val t = Tables.table5(spark, scale)
    val violations = Tables.exactnessViolations(spark, scale)
    require(violations.isEmpty, s"exactness violations:\n${violations.mkString("\n")}")
    t
  }
}

object Table5bJob extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table5b(spark, scale)
}

object Table6Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table6(spark, scale)
}

object Table7Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table7(spark, scale)
}

object Table8Job extends TableJob {
  def table(spark: SparkSession, scale: Double) = Tables.table8(spark, scale)
}

/** All tables in one run (indexes and detections are shared across tables). */
object AllTablesJob {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(BenchContext.DefaultScale)
    JobSession("AllTablesJob") { spark =>
      println(Tables.renderAll(spark, scale))
      val violations = Tables.exactnessViolations(spark, scale)
      require(violations.isEmpty, s"exactness violations:\n${violations.mkString("\n")}")
      println("\nAll algorithm results match the brute-force ground truth.")
    }
  }
}
