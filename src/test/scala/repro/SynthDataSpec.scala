package repro

/** The metric-dataset generators. */
class SynthDataSpec extends SparkSpec {

  test("clusteredVectors: mini-cluster population is present and sparser") {
    val df = SynthData.clusteredVectors(spark, 2000, 8, 5, 2.0, 100.0, 0.0,
      seed = 5, miniFrac = 0.2, nMini = 3, miniSigmaFactor = 1.3)
    assert(df.count() == 2000)
    // with outlierFrac 0 and miniFrac 0.2, both populations exist; the data
    // must still be finite and in-range-ish
    val arrs = df.limit(200).collect().map(_.getSeq[Double](1))
    assert(arrs.forall(_.forall(v => !v.isNaN && v > -100 && v < 200)))
  }

  test("editWords: sparse-root members carry more edits than dense-root members") {
    val df = SynthData.editWords(spark, 2000, 10, 0.0, seed = 6, sparseFrac = 0.5, nSparseRoots = 2)
    val words = df.collect().map(_.getString(1))
    assert(words.length == 2000)
    assert(words.forall(w => w.nonEmpty && w.forall(c => c >= 'a' && c <= 'z')))
  }

  test("generator output is independent of partitioning") {
    val a = SynthData.clusteredVectors(spark, 500, 4, 3, 1.0, 50.0, 0.05, seed = 9)
      .repartition(1).collect().sortBy(_.getLong(0)).map(_.getSeq[Double](1)).toSeq
    val b = SynthData.clusteredVectors(spark, 500, 4, 3, 1.0, 50.0, 0.05, seed = 9)
      .repartition(13).collect().sortBy(_.getLong(0)).map(_.getSeq[Double](1)).toSeq
    assert(a == b)
  }
}
