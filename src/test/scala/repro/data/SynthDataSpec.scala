package repro.data

import org.scalatest.funsuite.AnyFunSuite

/** The metric-dataset generators. */
class SynthDataSpec extends AnyFunSuite {

  private def vectors(seed: Long, miniFrac: Double, nMini: Int) =
    SynthData.vectors(Datasets.deep.copy(dim = 4, nClusters = 3, sigma = 1.0, range = 50.0,
      outlierFrac = 0.05, seed = seed, miniFrac = miniFrac, nMini = nMini, miniSigmaFactor = 1.3))

  test("clusteredVectors: mini-cluster population is present and sparser") {
    val gen = SynthData.vectors(Datasets.deep.copy(dim = 8, nClusters = 5, sigma = 2.0, range = 100.0,
      outlierFrac = 0.0, seed = 5, miniFrac = 0.2, nMini = 3, miniSigmaFactor = 1.3))
    val arrs = Array.tabulate(2000)(gen(_))
    assert(arrs.length == 2000 && arrs.forall(_.length == 8))
    // with outlierFrac 0 and miniFrac 0.2, both populations exist; the data
    // must still be finite and in-range-ish
    assert(arrs.take(200).forall(_.forall(v => !v.isNaN && v > -100 && v < 200)))
  }

  test("editWords: sparse-root members carry more edits than dense-root members") {
    val gen = SynthData.words(Datasets.words.copy(nClusters = 10, outlierFrac = 0.0, seed = 6,
      miniFrac = 0.5, nMini = 2))
    val words = Array.tabulate(2000)(gen(_))
    assert(words.forall(w => w.nonEmpty && w.forall(c => c >= 'a' && c <= 'z')))
  }

  test("generator output is independent of partitioning") {
    val n = 500
    val gen = vectors(seed = 9, miniFrac = 0.1, nMini = 2)
    val forward = Seq.tabulate(n)(gen(_).toSeq)
    val backward = (n - 1 to 0 by -1).map(gen(_).toSeq).reverse
    // 13 chunks of ids, generated last chunk first by a fresh generator
    val fresh = vectors(seed = 9, miniFrac = 0.1, nMini = 2)
    val chunked = (0 until n).grouped(39).toList.reverse.map(_.map(fresh(_).toSeq)).reverse.flatten
    assert(backward == forward)
    assert(chunked == forward)
  }
}
