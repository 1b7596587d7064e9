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

  /** Metric distance between objects `i` and `j` (triangle inequality up to
    * [[roundingSlack]]). Deterministic and symmetric bit for bit:
    * `dist(i, j)` and `dist(j, i)` return the same `Double` on every call,
    * so a build may evaluate a pair once and use it in both directions.
    */
  def dist(i: Int, j: Int): Double

  /** Whether `dist(i, j) <= r`: the test every detection-time decision
    * makes. An override may stop computing once the verdict is sure, but
    * must return exactly this verdict, bit for bit, for every `r`.
    */
  def within(i: Int, j: Int, r: Double): Boolean = dist(i, j) <= r

  /** Relative slack that triangle-inequality rules add to their bounds, so
    * that rounding in `dist` never lets a rule skip a pair whose computed
    * `dist` is within `r`, or call one within `r` whose computed `dist` is
    * not. A space whose distances are computed exactly states 0, which
    * leaves every bound as it is; a wrapper states its base space's.
    */
  def roundingSlack: Double

  /** Absolute slack that the same rules add on top of [[roundingSlack]]'s:
    * it covers a rounding error that does not shrink with the distance, for
    * a rule that combines up to three computed distances. 0 (the default)
    * for a space whose errors are relative; a wrapper states its base
    * space's.
    */
  def absoluteSlack: Double = 0.0
}

/** Distance functions over dense vectors. L1/L2/L4 are Minkowski norms; the
  * angular distance is `acos(cosine)/pi`, a metric on the unit sphere (the
  * paper uses it for Glove).
  *
  * The kernels read the vectors `x(a until a + dim)` and `y(b until b + dim)`,
  * so rows of one flat row-major store need no copy.
  */
sealed trait VectorMetric extends Serializable {
  def name: String

  def dist(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int): Double

  final def dist(a: Array[Double], b: Array[Double]): Double = dist(a, 0, b, 0, a.length)
}

object VectorMetric {

  /** L1, L2 and L4: the metrics with an early-abandoning threshold test. */
  sealed trait Minkowski extends VectorMetric {
    /** Whether `dist(x, a, y, b, dim) <= r`, the same verdict bit for bit. */
    def within(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int, r: Double): Boolean
  }

  /** The partial power sum past which a Minkowski `within` may stop:
    * `rp = r^p` widened by 1e-12, far more than the rounding of `rp` and of
    * the final root, so a sum past it has a root above `r`. `+∞` (never
    * stop) unless `rp` is a finite normal number: a subnormal power has
    * lost its relative precision.
    */
  private def abandonAt(rp: Double): Double =
    if (rp >= java.lang.Double.MIN_NORMAL && rp <= Double.MaxValue) rp * (1 + 1e-12)
    else Double.PositiveInfinity

  // `within` sums the same terms in the same order as `dist`, and every 8
  // coordinates compares the partial sum with `abandonAt(r^p)`. The loops
  // are kept apart so that `dist`, the graph build's kernel, keeps its plain
  // loop and a JIT profile of its own.

  case object L1 extends Minkowski {
    def name = "L1"
    def dist(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int): Double = {
      var s = 0.0; var i = 0
      while (i < dim) { s += math.abs(x(a + i) - y(b + i)); i += 1 }
      s
    }
    def within(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int, r: Double): Boolean = {
      val stop = abandonAt(r)
      var s = 0.0; var i = 0
      while (i < dim) {
        s += math.abs(x(a + i) - y(b + i)); i += 1
        if ((i & 7) == 0 && s > stop) return false
      }
      s <= r
    }
  }

  case object L2 extends Minkowski {
    def name = "L2"
    def dist(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int): Double = {
      var s = 0.0; var i = 0
      while (i < dim) { val d = x(a + i) - y(b + i); s += d * d; i += 1 }
      math.sqrt(s)
    }
    def within(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int, r: Double): Boolean = {
      val stop = abandonAt(r * r)
      var s = 0.0; var i = 0
      while (i < dim) {
        val d = x(a + i) - y(b + i); s += d * d; i += 1
        if ((i & 7) == 0 && s > stop) return false
      }
      math.sqrt(s) <= r
    }
  }

  case object L4 extends Minkowski {
    def name = "L4"
    def dist(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int): Double = {
      var s = 0.0; var i = 0
      while (i < dim) { val d = x(a + i) - y(b + i); val d2 = d * d; s += d2 * d2; i += 1 }
      math.sqrt(math.sqrt(s))
    }
    def within(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int, r: Double): Boolean = {
      val r2 = r * r
      val stop = abandonAt(r2 * r2)
      var s = 0.0; var i = 0
      while (i < dim) {
        val d = x(a + i) - y(b + i); val d2 = d * d; s += d2 * d2; i += 1
        if ((i & 7) == 0 && s > stop) return false
      }
      math.sqrt(math.sqrt(s)) <= r
    }
  }

  /** `acos(cos(a, b)) / pi` in [0, 1]. Callers should pass non-zero vectors. */
  case object Angular extends VectorMetric {
    def name = "Angular"
    def dist(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int): Double =
      angle(dot(x, a, y, b, dim), norm(x, a, dim), norm(y, b, dim))

    def dot(x: Array[Double], a: Int, y: Array[Double], b: Int, dim: Int): Double = {
      var s = 0.0; var i = 0
      while (i < dim) { s += x(a + i) * y(b + i); i += 1 }
      s
    }

    def norm(x: Array[Double], a: Int, dim: Int): Double = math.sqrt(dot(x, a, x, a, dim))

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

/** Vectors under a Minkowski or angular metric, stored flat: row `i` is
  * `data(i * dim until (i + 1) * dim)`, so a distance reads two stretches
  * of one array and a broadcast ships one array. Norms are precomputed for
  * the angular case so `dist` stays one pass over the coordinates.
  */
final class VectorSpace private (data: Array[Double], val n: Int, val metric: VectorMetric)
    extends MetricSpace {

  /** The space of `rows`: at least one row, every row with the first row's
    * number of coordinates, all finite.
    */
  def this(rows: Array[Array[Double]], metric: VectorMetric) =
    this(VectorSpace.flatten(rows), rows.length, metric)

  val dim: Int = data.length / n

  private val norms: Array[Double] =
    if (metric == VectorMetric.Angular) Array.tabulate(n)(i => VectorMetric.Angular.norm(data, i * dim, dim))
    else null

  /** A copy of every row. */
  def points: Array[Array[Double]] =
    Array.tabulate(n)(i => java.util.Arrays.copyOfRange(data, i * dim, (i + 1) * dim))

  def dist(i: Int, j: Int): Double =
    if (metric == VectorMetric.Angular)
      VectorMetric.Angular.angle(VectorMetric.Angular.dot(data, i * dim, data, j * dim, dim), norms(i), norms(j))
    else metric.dist(data, i * dim, data, j * dim, dim)

  override def within(i: Int, j: Int, r: Double): Boolean = metric match {
    case m: VectorMetric.Minkowski => m.within(data, i * dim, data, j * dim, dim, r)
    case _ => super.within(i, j, r)
  }

  /** Far above the relative rounding error of a Minkowski sum over any
    * practical dimension.
    */
  def roundingSlack: Double = 1e-9

  /** Angular distances near 0 and 1 go through `acos` where it is
    * ill-conditioned: a cosine off by a relative `e` moves the angle by up
    * to `sqrt(2e)` radians, whatever the angle. The cosine's relative error
    * is at most `(2 * dim + 3)` unit roundoffs (a dot product and two
    * norms), so one computed distance is off by at most
    * `sqrt((2 * dim + 3) * ulp(1)) / pi`; the slack is twice that for each
    * of a rule's three distances. 0 for the Minkowski metrics, whose errors
    * are relative.
    */
  override val absoluteSlack: Double =
    if (metric == VectorMetric.Angular) 6 * math.sqrt((2.0 * dim + 3) * Math.ulp(1.0)) / math.Pi else 0.0
}

object VectorSpace {
  /** `rows` checked and copied into one row-major array. */
  private def flatten(rows: Array[Array[Double]]): Array[Double] = {
    require(rows.nonEmpty, "empty space")
    val dim = rows(0).length
    require(rows.length.toLong * dim <= Int.MaxValue - 8, s"${rows.length} rows of $dim coordinates do not fit one array")
    val data = new Array[Double](rows.length * dim)
    rows.indices.foreach { i =>
      require(rows(i).length == dim, s"row $i has ${rows(i).length} coordinates, row 0 has $dim")
      require(rows(i).forall(java.lang.Double.isFinite), s"row $i has a NaN or infinite coordinate")
      System.arraycopy(rows(i), 0, data, i * dim, dim)
    }
    data
  }
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

  override def within(i: Int, j: Int, r: Double): Boolean = kernel.within(i, j, r)

  /** Edit distances are integers, computed exactly. */
  def roundingSlack: Double = 0.0
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
  * Immutable after construction: `dist` and `within` allocate nothing and
  * may be called from any number of threads at once.
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

  def dist(i: Int, j: Int): Int = scan(i, j, Int.MaxValue)

  /** Whether `dist(i, j) <= r`: `scan` with the cut-off `⌊r⌋`. */
  def within(i: Int, j: Int, r: Double): Boolean = {
    if (!(r >= 0)) return false // no distance is negative, or below NaN
    val k = if (r >= Int.MaxValue) Int.MaxValue else r.toInt // ⌊r⌋
    scan(i, j, k) <= k
  }

  /** `dist(i, j)` if it is at most `k`, else some value above `k`. A pair
    * whose lengths differ by more than `k` is answered at once (the distance
    * is at least the difference), and the scan stops once `score` minus the
    * text units left exceeds `k`, because the DP's last row moves by at
    * most 1 per text unit. `k = Int.MaxValue` never stops.
    */
  private def scan(i: Int, j: Int, k: Int): Int = {
    var p = i; var t = j
    if (start(j + 1) - start(j) < start(i + 1) - start(i)) { p = j; t = i }
    val m = start(p + 1) - start(p)
    val ts = start(t); val te = start(t + 1)
    if (te - ts - m > k) return te - ts - m
    if (peq == null || m > MaxPattern) return EditDistance(words(i), words(j))
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
      if (score - (te - x) > k) return score
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
