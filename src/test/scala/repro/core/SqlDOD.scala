package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** DOD expressed purely in the DataFrame/Spark-SQL API (Catalyst): a
  * self-join on the distance predicate, a group-by count, and an anti-join
  * to recover objects with zero neighbors. O(n^2) — used as a semantic
  * cross-check against DuckDB via [[repro.Oracle]], not as a fast baseline.
  *
  * Inputs carry scalar columns (`id`, `x0..x{d-1}` or `id`, `word`) so the
  * same tables can be handed to DuckDB; [[flatDF]] builds them from a space.
  */
object SqlDOD {

  /** Flat scalar-column DataFrame (`id, x0..x{d-1}` or `id, word`) for the
    * DuckDB oracle and [[outliers]], built from an in-memory space.
    */
  def flatDF(spark: SparkSession, space: MetricSpace): DataFrame = space match {
    case vs: VectorSpace =>
      val schema = StructType(
        StructField("id", LongType) +:
          (0 until vs.dim).map(i => StructField(s"x$i", DoubleType)))
      val rows = vs.points.zipWithIndex.map { case (p, i) =>
        Row.fromSeq(i.toLong +: p.toSeq)
      }
      spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
    case ss: StringSpace =>
      val schema = StructType(Seq(StructField("id", LongType), StructField("word", StringType)))
      val rows = ss.words.zipWithIndex.map { case (w, i) => Row(i.toLong, w) }
      spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
    case other => throw new IllegalArgumentException(s"unsupported space: $other")
  }

  /** Distance expression between aliased sides `a` and `b` of a self-join. */
  private def distExpr(df: DataFrame, metric: String): org.apache.spark.sql.Column = {
    val dims = df.columns.filter(_.startsWith("x"))
    def a(c: String) = col(s"a.$c")
    def b(c: String) = col(s"b.$c")
    metric match {
      case "L1" => dims.map(c => abs(a(c) - b(c))).reduce(_ + _)
      case "L2" => sqrt(dims.map(c => pow(a(c) - b(c), 2)).reduce(_ + _))
      case "L4" => pow(dims.map(c => pow(a(c) - b(c), 4)).reduce(_ + _), lit(0.25))
      case "Edit" => levenshtein(col("a.word"), col("b.word")).cast("double")
      case other => throw new IllegalArgumentException(s"unsupported metric for SQL: $other")
    }
  }

  /** Outlier ids (`id: bigint`, sorted) for the given flat table. */
  def outliers(spark: SparkSession, df: DataFrame, metric: String, r: Double, k: Int): DataFrame = {
    val a = df.alias("a")
    val b = df.alias("b")
    val counts = a
      .join(b, col("a.id") =!= col("b.id") && distExpr(df, metric) <= lit(r))
      .groupBy(col("a.id").as("id"))
      .agg(count(lit(1)).as("cnt"))
    df.select(col("id"))
      .join(counts, Seq("id"), "left")
      .where(coalesce(col("cnt"), lit(0L)) < lit(k.toLong))
      .select(col("id"))
      .orderBy(col("id"))
  }

  /** The DuckDB-side SQL equivalent over a table named `pts`, for
    * [[repro.Oracle.assertEquivalent]]. Columns are VARCHAR in the oracle
    * schema, hence the casts.
    */
  def duckSql(df: DataFrame, metric: String, r: Double, k: Int): String = {
    val dims = df.columns.filter(_.startsWith("x"))
    def ca(c: String) = s"CAST(a.$c AS DOUBLE)"
    def cb(c: String) = s"CAST(b.$c AS DOUBLE)"
    val dist = metric match {
      case "L1" => dims.map(c => s"abs(${ca(c)} - ${cb(c)})").mkString(" + ")
      case "L2" => "sqrt(" + dims.map(c => s"power(${ca(c)} - ${cb(c)}, 2)").mkString(" + ") + ")"
      case "L4" =>
        "power(" + dims.map(c => s"power(${ca(c)} - ${cb(c)}, 4)").mkString(" + ") + ", 0.25)"
      case "Edit" => "CAST(levenshtein(a.word, b.word) AS DOUBLE)"
      case other => throw new IllegalArgumentException(s"unsupported metric for SQL: $other")
    }
    s"""
       |SELECT CAST(p.id AS BIGINT) AS id
       |FROM pts p
       |LEFT JOIN (
       |  SELECT a.id AS id, count(*) AS cnt
       |  FROM pts a JOIN pts b
       |    ON a.id <> b.id AND ($dist) <= $r
       |  GROUP BY a.id
       |) c ON p.id = c.id
       |WHERE COALESCE(c.cnt, 0) < $k
       |ORDER BY CAST(p.id AS BIGINT)
       |""".stripMargin
  }
}
