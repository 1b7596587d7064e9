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
  * angular case so `dist` stays one pass over the coordinates. Every row must
  * have the same number of coordinates, all finite.
  */
final class VectorSpace(val points: Array[Array[Double]], val metric: VectorMetric)
    extends MetricSpace {
  require(points.nonEmpty, "empty space")
  val n: Int = points.length
  val dim: Int = points(0).length
  points.indices.foreach { i =>
    require(points(i).length == dim, s"row $i has ${points(i).length} coordinates, row 0 has $dim")
    require(points(i).forall(java.lang.Double.isFinite), s"row $i has a NaN or infinite coordinate")
  }

  private val norms: Array[Double] =
    if (metric == VectorMetric.Angular) points.map(VectorMetric.Angular.norm) else null

  def dist(i: Int, j: Int): Double =
    if (metric == VectorMetric.Angular)
      VectorMetric.Angular.angle(VectorMetric.Angular.dot(points(i), points(j)), norms(i), norms(j))
    else metric.dist(points(i), points(j))
}

/** Strings under unit-cost Levenshtein (edit) distance — the paper's Words
  * dataset. Matches DuckDB's and Spark's `levenshtein`, which the oracle
  * tests rely on.
  *
  * `dist` runs the bit-parallel [[BitParallelEdit]] kernel; its tables are
  * built once per JVM copy of the space on first use and are not part of the
  * serialized form, so a broadcast ships only `words`.
  */
final class StringSpace(val words: Array[String]) extends MetricSpace {
  require(words.nonEmpty, "empty space")
  val n: Int = words.length

  @transient private lazy val kernel = new BitParallelEdit(words)

  def dist(i: Int, j: Int): Double = kernel.dist(i, j).toDouble
}

/** Exact Levenshtein distances between the words of one space, computed with
  * Myers' bit-vector algorithm [Myers, J. ACM 1999] in Hyyrö's edit-distance
  * form [Hyyrö 2001]: the shorter word of a pair is the pattern, held in one
  * 64-bit word, and each unit of the other word (the text, any length) costs
  * a constant number of word operations instead of a DP column.
  *
  * Every word is encoded once into dense symbol codes over the UTF-16 units
  * present in the data (the units [[EditDistance]] compares with `charAt`),
  * and every word of at most 64 units gets its match-mask row `peq`: bit `i`
  * of `peq(row(w) + c)` is set iff unit `i` of `w` has code `c`. Pairs whose
  * shorter word is longer than 64 units go to [[EditDistance]], and so does
  * every pair when the rows would exceed [[BitParallelEdit.MaxTableWords]].
  *
  * Immutable after construction: `dist` allocates nothing and may be called
  * from any number of threads at once.
  */
final class BitParallelEdit(words: Array[String]) {
  import BitParallelEdit._

  /** `codes(start(w) until start(w + 1))` are the symbol codes of word `w`. */
  private val start: Array[Int] = words.scanLeft(0)(_ + _.length)
  private val codes = new Array[Char](start(words.length))

  /** Alphabet size; fills `codes`, numbering units by first appearance. */
  private val sigma: Int = {
    val codeOf = new Array[Int](Char.MaxValue + 1) // code + 1, 0 = unseen
    var next = 0
    var w = 0
    while (w < words.length) {
      val s = words(w); var x = 0
      while (x < s.length) {
        val c = s.charAt(x)
        if (codeOf(c) == 0) { next += 1; codeOf(c) = next }
        codes(start(w) + x) = (codeOf(c) - 1).toChar
        x += 1
      }
      w += 1
    }
    next
  }

  /** Offset of each word's `peq` row, or -1 for a word longer than 64 units. */
  private val row = new Array[Int](words.length)
  private val peq: Array[Long] = {
    val rows = words.count(_.length <= MaxPattern)
    if (rows.toLong * sigma > MaxTableWords) null
    else {
      val table = new Array[Long](rows * sigma)
      var next = 0
      var w = 0
      while (w < words.length) {
        val m = start(w + 1) - start(w)
        if (m <= MaxPattern) {
          row(w) = next * sigma
          var x = 0
          while (x < m) { table(row(w) + codes(start(w) + x)) |= 1L << x; x += 1 }
          next += 1
        } else row(w) = -1
        w += 1
      }
      table
    }
  }

  def dist(i: Int, j: Int): Int = {
    var p = i; var t = j
    if (start(j + 1) - start(j) < start(i + 1) - start(i)) { p = j; t = i }
    val m = start(p + 1) - start(p)
    if (peq == null || m > MaxPattern) return EditDistance(words(i), words(j))
    val ts = start(t); val te = start(t + 1)
    if (m == 0) return te - ts
    val base = row(p)
    val last = 1L << (m - 1)
    // the current DP column as vertical deltas: pv / mv mark +1 / -1 steps
    var pv = -1L; var mv = 0L; var score = m
    var x = ts
    while (x < te) {
      val eq = peq(base + codes(x))
      val xv = eq | mv
      val xh = (((eq & pv) + pv) ^ pv) | eq
      val ph = mv | ~(xh | pv)
      val mh = pv & xh
      if ((ph & last) != 0) score += 1
      else if ((mh & last) != 0) score -= 1
      // the DP's top row is 0, 1, 2, ...: a +1 horizontal delta enters at bit 0
      val ph1 = (ph << 1) | 1L
      pv = (mh << 1) | ~(xv | ph1)
      mv = ph1 & xv
      x += 1
    }
    score
  }
}

object BitParallelEdit {
  /** Longest pattern: one machine word. */
  val MaxPattern = 64

  /** Largest match table (in 64-bit words, 32 MiB) built before every pair
    * falls back to the DP.
    */
  val MaxTableWords: Long = 1L << 22
}

/** Standard two-row dynamic-programming Levenshtein distance: the reference
  * for [[BitParallelEdit]] and its fallback for long pairs.
  */
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
