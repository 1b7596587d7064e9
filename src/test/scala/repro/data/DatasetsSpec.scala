package repro.data

import repro.SparkSpec
import repro.core.{BruteForce, MetricSpace, SqlDOD, StringSpace, VectorSpace}

/** Generator determinism, the flat DataFrame's schema and contents, and
  * dataset shape for the 7 substitutes.
  */
class DatasetsSpec extends SparkSpec {

  private val testScale = 0.05

  /** Each row's bits: raw double bits for vectors, the word for strings. */
  private def rowBits(space: MetricSpace): Seq[Seq[Any]] = space match {
    case vs: VectorSpace => vs.points.toSeq.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))
    case ss: StringSpace => ss.words.toSeq.map(Seq(_))
    case other => fail(s"unexpected space $other")
  }

  /** The ids and row bits [[SqlDOD.flatDF]] holds for `space`, by id. */
  private def flatRows(space: MetricSpace): (Seq[Long], Seq[Seq[Any]]) = {
    val rows = SqlDOD.flatDF(spark, space).collect().sortBy(_.getLong(0)).toSeq
    val bits: Seq[Seq[Any]] = space match {
      case _: StringSpace => rows.map(r => Seq(r.getString(1)))
      case _ => rows.map(r => (1 until r.length).map(i => java.lang.Double.doubleToRawLongBits(r.getDouble(i))))
    }
    (rows.map(_.getLong(0)), bits)
  }

  for (spec <- Datasets.all) {
    test(s"${spec.name}: space(scale) equals the DataFrame's rows sorted by id, bit for bit") {
      // the flat DataFrame is what SqlDOD and the DuckDB oracle read
      val space = spec.space(testScale)
      val (ids, bits) = flatRows(space)
      assert(ids == (0L until spec.n(testScale)))
      assert(bits == rowBits(space))
    }

    test(s"${spec.name}: space(scale) starts no Spark job and repeats exactly") {
      val ((a, b), jobs) = countingJobs((spec.space(testScale), spec.space(spark, testScale)))
      assert(jobs == 0)
      assert(a.n == spec.n(testScale))
      assert(rowBits(a) == rowBits(b))
    }

    test(s"${spec.name}: DataFrame schema and cardinality") {
      val df = SqlDOD.flatDF(spark, spec.space(testScale))
      val expectedCols =
        if (spec.metric == "Edit") Seq("id", "word") else "id" +: (0 until spec.dim).map(i => s"x$i")
      assert(df.columns.toSeq == expectedCols)
      assert(df.count() == spec.n(testScale))
    }

    test(s"${spec.name}: generation is deterministic") {
      // each row is a function of (seed, id) alone, so a smaller scale's
      // rows are a prefix of a larger scale's
      val small = rowBits(spec.space(testScale))
      val large = rowBits(spec.space(3 * testScale))
      assert(large.length > small.length)
      assert(large.take(small.length) == small)
    }

    test(s"${spec.name}: space round-trip matches the declared metric/shape") {
      val space = spec.space(testScale)
      assert(space.n == spec.n(testScale))
      space match {
        case vs: VectorSpace =>
          assert(vs.dim == spec.dim)
          assert(vs.metric.name == spec.metric)
        case _: StringSpace =>
          assert(spec.metric == "Edit")
        case other => fail(s"unexpected space $other")
      }
    }

    test(s"${spec.name}: distances are finite and non-degenerate") {
      val space = spec.space(testScale)
      val rng = new scala.util.Random(7)
      val ds = Seq.fill(200)(space.dist(rng.nextInt(space.n), rng.nextInt(space.n)))
      assert(ds.forall(d => !d.isNaN && !d.isInfinite && d >= 0))
      assert(ds.max > 0.0)
    }
  }

  test("angular vectors are unit-norm") {
    val space = Datasets.glove.space(testScale).asInstanceOf[VectorSpace]
    space.points.take(100).foreach { p =>
      val nrm = math.sqrt(p.map(x => x * x).sum)
      assert(math.abs(nrm - 1.0) < 1e-9)
    }
  }

  test("words: outliers are long strings, inliers cluster near roots") {
    val space = Datasets.words.space(0.2).asInstanceOf[StringSpace]
    val long = space.words.count(_.length >= 20)
    // outlierFrac = 4.16% of n
    assert(long > 0)
    assert(long < space.n / 10)
  }

  test("outlier ratio is small at a scale preserving main-cluster sizes (glove)") {
    // at scale 0.4 the zipf main clusters keep >= k+1 members, but the
    // sparse mini-clusters shrink toward k, so the ratio sits above the
    // full-scale value (the bench asserts the calibrated full-scale ratio)
    val spec = Datasets.glove
    val space = spec.space(0.4)
    val ratio = 100.0 * BruteForce.outliers(space, spec.r, spec.k).length / space.n
    assert(ratio > 0.1 && ratio < 8.0, s"ratio $ratio%")
  }

  test("flatDF exposes scalar columns for vectors") {
    val space = Datasets.sift.space(0.02)
    val df = SqlDOD.flatDF(spark, space)
    assert(df.columns.length == 1 + 64)
    assert(df.count() == space.n)
  }

  test("flatDF exposes (id, word) for strings") {
    val space = Datasets.words.space(0.05)
    val df = SqlDOD.flatDF(spark, space)
    assert(df.columns.toSeq == Seq("id", "word"))
    assert(df.count() == space.n)
  }

  test("byName resolves every spec and rejects unknown names") {
    Datasets.all.foreach(s => assert(Datasets.byName(s.name) eq s))
    assertThrows[IllegalArgumentException](Datasets.byName("nope"))
  }

  test("scaling changes cardinality proportionally") {
    val spec = Datasets.deep
    assert(spec.n(1.0) == 16000)
    assert(spec.n(0.5) == 8000)
    assert(spec.n(1e-9) == 200) // floor
  }
}
