package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestSpaces}
import repro.graph.{MRPG, ProximityGraph}

/** DuckDB-oracle correctness: the Spark-SQL DOD plan and the graph-based
  * detector are both diffed against DuckDB running the same query.
  */
class SqlDODSpec extends SparkSpec {

  private val runner = new LocalRunner(4)

  private def vecCase(metric: repro.core.VectorMetric, dim: Int, seed: Long) = {
    val space = TestSpaces.clustered(250, dim, metric, nClusters = 4, outlierFrac = 0.04, seed = seed)
    (space, SqlDOD.flatDF(spark, space))
  }

  test("SqlDOD (L2) matches DuckDB on the same table") {
    val (space, df) = vecCase(VectorMetric.L2, 4, 201)
    val got = SqlDOD.outliers(spark, df, "L2", 10.0, 8)
    Oracle.assertEquivalent(got, SqlDOD.duckSql(df, "L2", 10.0, 8), "pts" -> df)
    assert(got.collect().map(_.getLong(0).toInt).toSeq == BruteForce.outliers(space, 10.0, 8).toSeq)
  }

  test("SqlDOD (L1) matches DuckDB and brute force") {
    val (space, df) = vecCase(VectorMetric.L1, 4, 202)
    val got = SqlDOD.outliers(spark, df, "L1", 18.0, 8)
    Oracle.assertEquivalent(got, SqlDOD.duckSql(df, "L1", 18.0, 8), "pts" -> df)
    assert(got.collect().map(_.getLong(0).toInt).toSeq == BruteForce.outliers(space, 18.0, 8).toSeq)
  }

  test("SqlDOD (L4) matches DuckDB and brute force") {
    val (space, df) = vecCase(VectorMetric.L4, 4, 203)
    val got = SqlDOD.outliers(spark, df, "L4", 8.0, 6)
    Oracle.assertEquivalent(got, SqlDOD.duckSql(df, "L4", 8.0, 6), "pts" -> df)
    assert(got.collect().map(_.getLong(0).toInt).toSeq == BruteForce.outliers(space, 8.0, 6).toSeq)
  }

  test("SqlDOD (edit distance) matches DuckDB levenshtein and our DP distance") {
    val space = TestSpaces.strings(220, seed = 204)
    val df = SqlDOD.flatDF(spark, space)
    val got = SqlDOD.outliers(spark, df, "Edit", 4.0, 6)
    Oracle.assertEquivalent(got, SqlDOD.duckSql(df, "Edit", 4.0, 6), "pts" -> df)
    assert(got.collect().map(_.getLong(0).toInt).toSeq == BruteForce.outliers(space, 4.0, 6).toSeq)
  }

  /** Graph-based DOD through Spark, as an `(id: bigint)` DataFrame. */
  private def graphOutliers(space: MetricSpace, g: ProximityGraph, r: Double, k: Int): DataFrame = {
    import spark.implicits._
    GraphDOD.run(new SparkRunner(spark), space, g, r, k).outliers.map(_.toLong).toSeq.toDF("id")
  }

  test("graph-based detector (MRPG) agrees with DuckDB") {
    val (space, df) = vecCase(VectorMetric.L2, 4, 205)
    val (g, _) = MRPG.build(space, 8, runner, seed = 7, maxIters = 4)
    val got = graphOutliers(space, g, 10.0, 8)
    Oracle.assertEquivalent(got, SqlDOD.duckSql(df, "L2", 10.0, 8), "pts" -> df)
  }

  test("graph-based detector on strings agrees with DuckDB levenshtein") {
    val space = TestSpaces.strings(220, seed = 206)
    val df = SqlDOD.flatDF(spark, space)
    val (g, _) = MRPG.build(space, 8, runner, seed = 8, maxIters = 4)
    val got = graphOutliers(space, g, 4.0, 6)
    Oracle.assertEquivalent(got, SqlDOD.duckSql(df, "Edit", 4.0, 6), "pts" -> df)
  }

  test("our edit distance equals Spark's levenshtein on random word pairs") {
    import org.apache.spark.sql.functions._
    val space = TestSpaces.strings(120, seed = 207)
    val words = space.words
    val rng = new scala.util.Random(208)
    val pairs = Seq.fill(200)((words(rng.nextInt(words.length)), words(rng.nextInt(words.length))))
    import spark.implicits._
    val df = pairs.toDF("a", "b").select(levenshtein(col("a"), col("b")).as("d")).collect()
    pairs.zip(df).foreach { case ((a, b), row) =>
      assert(EditDistance(a, b) == row.getInt(0), s"($a, $b)")
    }
  }
}
