package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{StringSpace, VectorMetric, VectorSpace}

/** The metric-dataset generators. */
class SynthDataSpec extends AnyFunSuite {

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  private def vectors(seed: Long, miniFrac: Double, nMini: Int) =
    SynthData.vectors(Datasets.deep.copy(dim = 4, nClusters = 3, sigma = 1.0, range = 50.0,
      outlierFrac = 0.05, seed = seed, miniFrac = miniFrac, nMini = nMini, miniSigmaFactor = 1.3))

  test("clusteredVectors: mini-cluster population is present and sparser") {
    def gen(miniFrac: Double) = SynthData.vectors(Datasets.deep.copy(dim = 8, nClusters = 5, sigma = 2.0,
      range = 100.0, outlierFrac = 0.0, seed = 5, miniFrac = miniFrac, nMini = 3, miniSigmaFactor = 1.3))
    val (withMini, noMini) = (gen(0.2), gen(0.0))
    val n = 2000
    val rows = Array.tabulate(n)(withMini(_))
    assert(rows.forall(_.length == 8))
    // each row draws its population first, so the two generators differ
    // exactly on the mini-cluster rows
    val isMini = Array.tabulate(n)(i => !java.util.Arrays.equals(rows(i), noMini(i)))
    val miniShare = isMini.count(identity).toDouble / n
    assert(miniShare > 0.17 && miniShare < 0.23, s"mini-cluster share $miniShare")
    val space = new VectorSpace(rows, VectorMetric.L2)
    val nnDist = Array.tabulate(n)(i => (0 until n).iterator.filter(_ != i).map(space.dist(i, _)).min)
    def meanNN(mini: Boolean) = mean((0 until n).filter(isMini(_) == mini).map(nnDist(_)))
    assert(meanNN(mini = true) > meanNN(mini = false),
      s"mean NN distance: mini ${meanNN(mini = true)}, dense ${meanNN(mini = false)}")
  }

  test("editWords: sparse-root members carry more edits than dense-root members") {
    def gen(miniFrac: Double) = SynthData.words(Datasets.words.copy(nClusters = 1, outlierFrac = 0.0, seed = 6,
      miniFrac = miniFrac, nMini = 1))
    val (withSparse, noSparse) = (gen(0.5), gen(0.0))
    val n = 400
    val words = Array.tabulate(n)(withSparse(_))
    assert(words.forall(w => w.nonEmpty && w.forall(c => c >= 'a' && c <= 'z')))
    // as above, the generators differ exactly on the sparse-root rows
    val isSparse = Array.tabulate(n)(i => words(i) != noSparse(i))
    val sparseShare = isSparse.count(identity).toDouble / n
    assert(sparseShare > 0.4 && sparseShare < 0.6, s"sparse-root share $sparseShare")
    // one root per family, so a family's spread is its members' edits
    val space = new StringSpace(words)
    def meanPairwise(sparse: Boolean) = {
      val ids = (0 until n).filter(isSparse(_) == sparse)
      mean(for (i <- ids; j <- ids if i < j) yield space.dist(i, j))
    }
    assert(meanPairwise(sparse = true) > meanPairwise(sparse = false),
      s"mean pairwise edit distance: sparse ${meanPairwise(sparse = true)}, dense ${meanPairwise(sparse = false)}")
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
