package repro.data

import scala.util.Random

/** Synthetic metric datasets for the DOD reproduction.
  *
  * The paper evaluates on 7 real datasets (Deep/Glove/HEPMASS/MNIST/PAMAP2/
  * SIFT/Words); these synthetic substitutes keep the same distance function
  * and the same shape: clustered inliers (Gaussian clusters with skewed
  * sizes and per-cluster spread) plus a sparse uniform background of clear
  * outliers. Each generator reads its parameters from the [[DatasetSpec]] it
  * generates and is a plain per-row function `id => row`, seeded by
  * (seed, id), so any evaluation order gives the same rows, bit for bit:
  * `DatasetSpec.space` tabulates it into arrays.
  */
private[data] object SynthData {

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

  /** The population both vector forms draw, in one draw order.
    *
    * Inliers: `around(center, spread, rng)` for one of `nClusters` centers,
    * per-cluster spread `sigma * U(0.7, 1.3)`, skewed (zipf) cluster sizes.
    * Outliers (fraction `outlierFrac`): `point(rng)`, the same draw as the
    * centers, so far from every cluster and from each other.
    */
  private def mixture(spec: DatasetSpec)(
      point: Random => Array[Double],
      around: (Array[Double], Double, Random) => Array[Double],
  ): Long => Array[Double] = {
    val setup = new Random(spec.seed)
    val centers = Array.fill(spec.nClusters)(point(setup))
    val spreads = Array.fill(spec.nClusters)(spec.sigma * (0.7 + 0.6 * setup.nextDouble()))
    val cum = zipfCum(spec.nClusters)
    // sparse mini-clusters: small populations whose neighbor counts straddle
    // k (per-point radial jitter creates a density gradient) — these exercise
    // graph reachability in sparse regions, the source of the paper's false
    // positives, and contribute borderline outliers
    val miniCenters = Array.fill(math.max(spec.nMini, 1))(point(setup))
    val miniSpreads = Array.fill(math.max(spec.nMini, 1))(
      spec.sigma * spec.miniSigmaFactor * (0.9 + 0.2 * setup.nextDouble()))
    val miniW = Array.fill(math.max(spec.nMini, 1))(0.5 + setup.nextDouble())
    val miniCum = { val s = miniW.sum; var a = 0.0; miniW.map { w => a += w / s; a } }
    id => {
      val rng = rowRng(spec.seed, id)
      val u = rng.nextDouble()
      if (u < spec.outlierFrac) point(rng)
      else if (spec.nMini > 0 && u < spec.outlierFrac + spec.miniFrac) {
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

  /** One `dim`-vector per row id: the [[mixture]] in one of two forms.
    *
    * Angular: random unit centers and outliers (nearly orthogonal to
    * everything in moderate dimensions — clear outliers) and normalized
    * Gaussian inliers. Any other metric: centers and outliers uniform in
    * `[0, range]^dim` and Gaussian inliers.
    */
  def vectors(spec: DatasetSpec): Long => Array[Double] = spec.metric match {
    case "Angular" =>
      mixture(spec)(
        rng => normalized(Array.fill(spec.dim)(rng.nextGaussian())),
        (center, s, rng) => normalized(gaussianAround(center, s, rng)))
    case _ =>
      mixture(spec)(rng => Array.fill(spec.dim)(rng.nextDouble() * spec.range), gaussianAround)
  }

  /** Edit-distance strings, one word per row id.
    *
    * Inliers: one of `nClusters` root words (length 8-12) with up to 2
    * random edits, so co-members stay within edit distance 4 of each other.
    * Outliers: long random strings (length 20-28) — far from every root and
    * from each other (the paper notes Words outliers have large
    * "dimensionality", i.e. length; matched here).
    */
  def words(spec: DatasetSpec): Long => String = {
    val setup = new Random(spec.seed)
    def randomWord(rng: Random, len: Int): String =
      new String(Array.fill(len)(('a' + rng.nextInt(26)).toChar))
    val roots = Array.fill(spec.nClusters)(randomWord(setup, 8 + setup.nextInt(5)))
    // sparse root families (a fraction miniFrac of the rows, nMini roots):
    // few members, up to 4 edits — pairwise distances straddle a typical r,
    // so their neighbor counts hover around k
    val sparseRoots = Array.fill(math.max(spec.nMini, 1))(randomWord(setup, 9 + setup.nextInt(5)))
    val cum = zipfCum(spec.nClusters)
    id => {
      val rng = rowRng(spec.seed, id)
      val u = rng.nextDouble()
      if (u < spec.outlierFrac) randomWord(rng, 20 + rng.nextInt(9))
      else {
        val sparse = spec.nMini > 0 && u < spec.outlierFrac + spec.miniFrac
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
