package repro.core

/** A finite set of objects with a metric distance, addressed by index 0..n-1.
  *
  * All algorithms in this reproduction (graph builders, baselines, the DOD
  * detector) work on indices, so a space can be broadcast once and shared by
  * every Spark task. Implementations must be cheap to serialize.
  */
trait MetricSpace extends Serializable {
  /** Number of objects. */
  def n: Int

  /** Metric distance between objects `i` and `j` (symmetric, triangle ineq.). */
  def dist(i: Int, j: Int): Double

  /** Approximate in-memory footprint of the raw data in bytes (Table 6). */
  def dataBytes: Long
}

/** Distance functions over dense vectors. L1/L2/L4 are Minkowski norms; the
  * angular distance is `acos(cosine)/pi`, a metric on the unit sphere (the
  * paper uses it for Glove).
  */
sealed trait VectorMetric extends Serializable {
  def dist(a: Array[Double], b: Array[Double]): Double
  def name: String
}

object VectorMetric {
  case object L1 extends VectorMetric {
    def name = "L1"
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
      s
    }
  }

  case object L2 extends VectorMetric {
    def name = "L2"
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
      math.sqrt(s)
    }
  }

  case object L4 extends VectorMetric {
    def name = "L4"
    def dist(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { val d = a(i) - b(i); val d2 = d * d; s += d2 * d2; i += 1 }
      math.sqrt(math.sqrt(s))
    }
  }

  /** `acos(cos(a, b)) / pi` in [0, 1]. Callers should pass non-zero vectors. */
  case object Angular extends VectorMetric {
    def name = "Angular"
    def dist(a: Array[Double], b: Array[Double]): Double = angle(dot(a, b), norm(a), norm(b))

    def dot(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { s += a(i) * b(i); i += 1 }
      s
    }

    def norm(a: Array[Double]): Double = math.sqrt(dot(a, a))

    /** The angular distance from a dot product and the two norms. */
    def angle(dot: Double, na: Double, nb: Double): Double = {
      val denom = na * nb
      if (denom == 0.0) { if (na == nb) 0.0 else 1.0 }
      else math.acos(math.max(-1.0, math.min(1.0, dot / denom))) / math.Pi
    }
  }

  def byName(s: String): VectorMetric = s match {
    case "L1" => L1
    case "L2" => L2
    case "L4" => L4
    case "Angular" => Angular
    case other => throw new IllegalArgumentException(s"unknown metric: $other")
  }
}

/** Vectors under a Minkowski or angular metric. Norms are precomputed for the
  * angular case so `dist` stays one pass over the coordinates.
  */
final class VectorSpace(val points: Array[Array[Double]], val metric: VectorMetric)
    extends MetricSpace {
  require(points.nonEmpty, "empty space")
  val n: Int = points.length
  val dim: Int = points(0).length

  private val norms: Array[Double] =
    if (metric == VectorMetric.Angular) points.map(VectorMetric.Angular.norm) else null

  def dist(i: Int, j: Int): Double =
    if (metric == VectorMetric.Angular)
      VectorMetric.Angular.angle(VectorMetric.Angular.dot(points(i), points(j)), norms(i), norms(j))
    else metric.dist(points(i), points(j))

  def dataBytes: Long = n.toLong * dim * 8L
}

/** Strings under unit-cost Levenshtein (edit) distance — the paper's Words
  * dataset. Matches DuckDB's and Spark's `levenshtein`, which the oracle
  * tests rely on.
  */
final class StringSpace(val words: Array[String]) extends MetricSpace {
  require(words.nonEmpty, "empty space")
  val n: Int = words.length

  def dist(i: Int, j: Int): Double = EditDistance(words(i), words(j)).toDouble

  def dataBytes: Long = words.map(_.length.toLong * 2L + 16L).sum
}

/** Standard two-row dynamic-programming Levenshtein distance. */
object EditDistance {
  def apply(a: String, b: String): Int = {
    if (a == b) return 0
    val (s, t) = if (a.length <= b.length) (a, b) else (b, a)
    val m = s.length; val nn = t.length
    if (m == 0) return nn
    var prev = new Array[Int](m + 1)
    var cur = new Array[Int](m + 1)
    var i = 0
    while (i <= m) { prev(i) = i; i += 1 }
    var j = 1
    while (j <= nn) {
      cur(0) = j
      val tc = t.charAt(j - 1)
      var i2 = 1
      while (i2 <= m) {
        val cost = if (s.charAt(i2 - 1) == tc) 0 else 1
        var best = prev(i2 - 1) + cost
        val del = prev(i2) + 1
        if (del < best) best = del
        val ins = cur(i2 - 1) + 1
        if (ins < best) best = ins
        cur(i2) = best
        i2 += 1
      }
      val tmp = prev; prev = cur; cur = tmp
      j += 1
    }
    prev(m)
  }
}
