package repro

import scala.util.Random

/** Synthetic metric datasets for the DOD reproduction.
  *
  * The paper evaluates on 7 real datasets (Deep/Glove/HEPMASS/MNIST/PAMAP2/
  * SIFT/Words); these synthetic substitutes keep the same distance function
  * and the same shape: clustered inliers (Gaussian clusters with skewed
  * sizes and per-cluster spread) plus a sparse uniform background of clear
  * outliers. Each generator is a plain per-row function `id => row`, seeded
  * by (seed, id), so any evaluation order gives the same rows, bit for bit:
  * `DatasetSpec.space` tabulates it into arrays.
  */
object SynthData {

  private def rowRng(seed: Long, id: Long): Random =
    new Random(scala.util.hashing.byteswap64(seed ^ (id * 0x9E3779B97F4A7C15L)))

  /** Zipf-ish cluster pick: weight of cluster c is 1/(c+1). */
  private def pickCluster(rng: Random, cum: Array[Double]): Int = {
    val u = rng.nextDouble()
    var i = 0
    while (i < cum.length - 1 && u > cum(i)) i += 1
    i
  }

  private def zipfCum(nClusters: Int): Array[Double] = {
    val w = Array.tabulate(nClusters)(c => 1.0 / (c + 1))
    val s = w.sum
    val cum = new Array[Double](nClusters)
    var acc = 0.0
    var i = 0
    while (i < nClusters) { acc += w(i) / s; cum(i) = acc; i += 1 }
    cum
  }

  /** The population both vector generators draw, in one draw order.
    *
    * Inliers: `around(center, spread, rng)` for one of `nClusters` centers,
    * per-cluster spread `sigma * U(0.7, 1.3)`, skewed (zipf) cluster sizes.
    * Outliers (fraction `outlierFrac`): `point(rng)`, the same draw as the
    * centers, so far from every cluster and from each other.
    */
  private def mixture(
      nClusters: Int,
      sigma: Double,
      outlierFrac: Double,
      seed: Long,
      miniFrac: Double,
      nMini: Int,
      miniSigmaFactor: Double,
  )(
      point: Random => Array[Double],
      around: (Array[Double], Double, Random) => Array[Double],
  ): Long => Array[Double] = {
    val setup = new Random(seed)
    val centers = Array.fill(nClusters)(point(setup))
    val spreads = Array.fill(nClusters)(sigma * (0.7 + 0.6 * setup.nextDouble()))
    val cum = zipfCum(nClusters)
    // sparse mini-clusters: small populations whose neighbor counts straddle
    // k (per-point radial jitter creates a density gradient) — these exercise
    // graph reachability in sparse regions, the source of the paper's false
    // positives, and contribute borderline outliers
    val miniCenters = Array.fill(math.max(nMini, 1))(point(setup))
    val miniSpreads = Array.fill(math.max(nMini, 1))(
      sigma * miniSigmaFactor * (0.9 + 0.2 * setup.nextDouble()))
    val miniW = Array.fill(math.max(nMini, 1))(0.5 + setup.nextDouble())
    val miniCum = { val s = miniW.sum; var a = 0.0; miniW.map { w => a += w / s; a } }
    id => {
      val rng = rowRng(seed, id)
      val u = rng.nextDouble()
      if (u < outlierFrac) point(rng)
      else if (nMini > 0 && u < outlierFrac + miniFrac) {
        val c = pickCluster(rng, miniCum)
        around(miniCenters(c), miniSpreads(c) * (0.75 + 0.45 * rng.nextDouble()), rng) // radial jitter
      } else {
        val c = pickCluster(rng, cum)
        around(centers(c), spreads(c), rng)
      }
    }
  }

  private def gaussianAround(center: Array[Double], s: Double, rng: Random): Array[Double] =
    Array.tabulate(center.length)(i => center(i) + rng.nextGaussian() * s)

  private def normalized(v: Array[Double]): Array[Double] = {
    val nrm = math.sqrt(v.map(x => x * x).sum)
    v.map(_ / nrm)
  }

  /** Clustered vectors, one `dim`-vector per row id: the [[mixture]] with
    * centers and outliers uniform in `[0, range]^dim` and Gaussian inliers.
    */
  def clusteredVectors(
      dim: Int,
      nClusters: Int,
      sigma: Double,
      range: Double,
      outlierFrac: Double,
      seed: Long,
      miniFrac: Double,
      nMini: Int,
      miniSigmaFactor: Double,
  ): Long => Array[Double] =
    mixture(nClusters, sigma, outlierFrac, seed, miniFrac, nMini, miniSigmaFactor)(
      rng => Array.fill(dim)(rng.nextDouble() * range), gaussianAround)

  /** Clustered unit vectors for the angular metric, one per row id: the
    * [[mixture]] with random unit centers and outliers (nearly orthogonal to
    * everything in moderate dimensions — clear outliers) and normalized
    * Gaussian inliers.
    */
  def angularVectors(
      dim: Int,
      nClusters: Int,
      sigma: Double,
      outlierFrac: Double,
      seed: Long,
      miniFrac: Double,
      nMini: Int,
      miniSigmaFactor: Double,
  ): Long => Array[Double] =
    mixture(nClusters, sigma, outlierFrac, seed, miniFrac, nMini, miniSigmaFactor)(
      rng => normalized(Array.fill(dim)(rng.nextGaussian())),
      (center, s, rng) => normalized(gaussianAround(center, s, rng)))

  /** Edit-distance strings, one word per row id.
    *
    * Inliers: a root word (length 8-12) with up to 2 random edits, so
    * co-members stay within edit distance 4 of each other. Outliers: long
    * random strings (length 20-28) — far from every root and from each
    * other (the paper notes Words outliers have large "dimensionality",
    * i.e. length; matched here).
    */
  def editWords(
      nRoots: Int,
      outlierFrac: Double,
      seed: Long,
      sparseFrac: Double,
      nSparseRoots: Int,
  ): Long => String = {
    val setup = new Random(seed)
    def randomWord(rng: Random, len: Int): String =
      new String(Array.fill(len)(('a' + rng.nextInt(26)).toChar))
    val roots = Array.fill(nRoots)(randomWord(setup, 8 + setup.nextInt(5)))
    // sparse root families: few members, up to 4 edits — pairwise distances
    // straddle a typical r, so their neighbor counts hover around k
    val sparseRoots = Array.fill(math.max(nSparseRoots, 1))(randomWord(setup, 9 + setup.nextInt(5)))
    val cum = zipfCum(nRoots)
    id => {
      val rng = rowRng(seed, id)
      val u = rng.nextDouble()
      if (u < outlierFrac) randomWord(rng, 20 + rng.nextInt(9))
      else {
        val sparse = nSparseRoots > 0 && u < outlierFrac + sparseFrac
        val root =
          if (sparse) sparseRoots(rng.nextInt(sparseRoots.length))
          else roots(pickCluster(rng, cum))
        var w = root
        val edits = if (sparse) 1 + rng.nextInt(4) else rng.nextInt(3)
        var e = 0
        while (e < edits) {
          val op = rng.nextInt(3)
          val pos = rng.nextInt(w.length)
          val ch = ('a' + rng.nextInt(26)).toChar
          w = op match {
            case 0 => w.updated(pos, ch) // substitution
            case 1 => w.substring(0, pos) + ch + w.substring(pos) // insertion
            case _ if w.length > 4 => w.substring(0, pos) + w.substring(pos + 1) // deletion
            case _ => w.updated(pos, ch)
          }
          e += 1
        }
        w
      }
    }
  }
}
