package repro.core

import org.scalactic.Tolerance._
import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import scala.util.Random

/** Metric axioms and known values for all five distance functions. */
class MetricSpec extends AnyFunSuite {

  private val metrics = Seq(
    VectorMetric.L1, VectorMetric.L2, VectorMetric.L4, VectorMetric.Angular)

  private def randomVec(rng: Random, d: Int): Array[Double] =
    Array.fill(d)(rng.nextDouble() * 10 - 5)

  // ---- metric axioms (randomized property checks, 200 draws each) --------
  for (m <- metrics) {
    test(s"${m.name}: identity — dist(x, x) == 0") {
      val rng = new Random(1)
      for (_ <- 0 until 200) {
        val x = randomVec(rng, 6)
        assert(m.dist(x, x) === 0.0 +- 1e-6) // acos precision for Angular
      }
    }

    test(s"${m.name}: non-negativity") {
      val rng = new Random(2)
      for (_ <- 0 until 200) {
        val x = randomVec(rng, 6); val y = randomVec(rng, 6)
        assert(m.dist(x, y) >= 0.0)
      }
    }

    test(s"${m.name}: symmetry") {
      val rng = new Random(3)
      for (_ <- 0 until 200) {
        val x = randomVec(rng, 6); val y = randomVec(rng, 6)
        assert(m.dist(x, y) === m.dist(y, x) +- 1e-9)
      }
    }

    test(s"${m.name}: triangle inequality") {
      val rng = new Random(4)
      for (_ <- 0 until 200) {
        val x = randomVec(rng, 6); val y = randomVec(rng, 6); val z = randomVec(rng, 6)
        assert(m.dist(x, z) <= m.dist(x, y) + m.dist(y, z) + 1e-9)
      }
    }
  }

  // ---- known values ------------------------------------------------------
  test("L1: known value") {
    assert(VectorMetric.L1.dist(Array(0.0, 0.0), Array(3.0, -4.0)) === 7.0 +- 1e-12)
  }

  test("L2: known value (3-4-5)") {
    assert(VectorMetric.L2.dist(Array(0.0, 0.0), Array(3.0, 4.0)) === 5.0 +- 1e-12)
  }

  test("L4: known value") {
    val d = VectorMetric.L4.dist(Array(0.0, 0.0), Array(1.0, 1.0))
    assert(d === math.pow(2.0, 0.25) +- 1e-12)
  }

  test("Angular: orthogonal vectors are at distance 0.5") {
    assert(VectorMetric.Angular.dist(Array(1.0, 0.0), Array(0.0, 1.0)) === 0.5 +- 1e-12)
  }

  test("Angular: opposite vectors are at distance 1") {
    assert(VectorMetric.Angular.dist(Array(1.0, 0.0), Array(-1.0, 0.0)) === 1.0 +- 1e-12)
  }

  test("Angular: parallel vectors of different magnitude are at distance 0") {
    assert(VectorMetric.Angular.dist(Array(1.0, 2.0), Array(2.0, 4.0)) === 0.0 +- 1e-6)
  }

  test("L1 <= d * Linf and L2 <= L1 ordering on random vectors") {
    val rng = new Random(5)
    for (_ <- 0 until 100) {
      val x = randomVec(rng, 8); val y = randomVec(rng, 8)
      assert(VectorMetric.L2.dist(x, y) <= VectorMetric.L1.dist(x, y) + 1e-9)
      assert(VectorMetric.L4.dist(x, y) <= VectorMetric.L2.dist(x, y) + 1e-9)
    }
  }

  test("byName round-trips every metric") {
    for (m <- metrics) assert(VectorMetric.byName(m.name) == m)
    assertThrows[IllegalArgumentException](VectorMetric.byName("cosine"))
  }

  // ---- VectorSpace -------------------------------------------------------
  test("VectorSpace.dist agrees with the raw metric for every metric") {
    val rng = new Random(6)
    for (m <- metrics) {
      val pts = Array.fill(50, 5)(rng.nextDouble() * 10)
      val vs = new VectorSpace(pts, m)
      for (_ <- 0 until 100) {
        val i = rng.nextInt(50); val j = rng.nextInt(50)
        assert(vs.dist(i, j) === m.dist(pts(i), pts(j)) +- 1e-9)
      }
    }
  }

  test("VectorSpace precomputed-norm angular path matches direct computation") {
    val vs = TestSpaces.angular(100, 10, seed = 7)
    val rng = new Random(8)
    for (_ <- 0 until 200) {
      val i = rng.nextInt(100); val j = rng.nextInt(100)
      assert(vs.dist(i, j) == VectorMetric.Angular.dist(vs.points(i), vs.points(j)))
    }
  }

  /** Every ordered pair of `space` gives the same bits both ways. */
  private def assertBitSymmetric(space: MetricSpace, clue: String): Unit =
    for (i <- 0 until space.n; j <- 0 until space.n) {
      val (dij, dji) = (space.dist(i, j), space.dist(j, i))
      assert(java.lang.Double.doubleToRawLongBits(dij) == java.lang.Double.doubleToRawLongBits(dji),
        s"$clue: dist($i, $j) = $dij, dist($j, $i) = $dji")
    }

  test("VectorSpace.dist is symmetric bit for bit, a zero vector included") {
    val rng = new Random(20)
    // mixed signs and magnitudes, so rounding differs from term to term
    val pts = Array.fill(40)(Array.fill(7)((rng.nextDouble() - 0.5) * math.pow(10, rng.nextInt(7) - 3))) ++
      Array(Array.fill(7)(0.0), Array.fill(7)(1e-300), Array.tabulate(7)(i => if (i == 3) -2.5 else 0.0))
    for (m <- metrics) assertBitSymmetric(new VectorSpace(pts, m), m.name)
  }

  test("StringSpace.dist is symmetric bit for bit: empty words and words past 64 units") {
    val rng = new Random(21)
    def w(len: Int): String = new String(Array.fill(len)(('a' + rng.nextInt(3)).toChar))
    // equal lengths (either word may be the pattern), 0, 64 and 65 units, and
    // pairs whose shorter word exceeds 64 units (the DP fallback)
    val words = Seq(0, 0, 1, 5, 5, 5, 12, 63, 64, 64, 65, 65, 70, 90, 130).map(w).toArray
    assertBitSymmetric(new StringSpace(words), "edit distance")
  }

  test("VectorSpace serializes one flat copy of its rows and keeps its distances") {
    val vs = TestSpaces.clustered(500, 16, VectorMetric.L2, seed = 18)
    val bos = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bos)
    out.writeObject(vs); out.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[VectorSpace]
    val rng = new Random(19)
    for (_ <- 0 until 200) {
      val i = rng.nextInt(vs.n); val j = rng.nextInt(vs.n)
      assert(copy.dist(i, j) == vs.dist(i, j) && copy.within(i, j, 9.0) == vs.within(i, j, 9.0))
    }
    assert(copy.points.map(_.toSeq).toSeq == vs.points.map(_.toSeq).toSeq)
    val coordinates = 500L * 16 * 8
    assert(bos.size <= 1.1 * coordinates, s"space ${bos.size} B vs coordinates $coordinates B")
  }

  test("VectorSpace rejects empty input") {
    assertThrows[IllegalArgumentException](new VectorSpace(Array.empty, VectorMetric.L2))
  }

  test("VectorSpace rejects rows of unequal length") {
    val short = Array(Array(1.0, 2.0, 3.0), Array(1.0, 2.0))
    val long = Array(Array(1.0, 2.0), Array(1.0, 2.0, 3.0))
    for (pts <- Seq(short, long); m <- metrics)
      assertThrows[IllegalArgumentException](new VectorSpace(pts, m))
  }

  test("VectorSpace rejects NaN coordinates") {
    val pts = Array(Array(1.0, 2.0), Array(Double.NaN, 0.0))
    for (m <- metrics) assertThrows[IllegalArgumentException](new VectorSpace(pts, m))
  }

  test("VectorSpace rejects infinite coordinates") {
    for (x <- Seq(Double.PositiveInfinity, Double.NegativeInfinity); m <- metrics) {
      val pts = Array(Array(0.0, x), Array(1.0, 2.0))
      assertThrows[IllegalArgumentException](new VectorSpace(pts, m))
    }
  }

  // ---- edit distance -----------------------------------------------------
  test("EditDistance: known values") {
    assert(EditDistance("kitten", "sitting") == 3)
    assert(EditDistance("flaw", "lawn") == 2)
    assert(EditDistance("", "abc") == 3)
    assert(EditDistance("abc", "") == 3)
    assert(EditDistance("abc", "abc") == 0)
    assert(EditDistance("a", "b") == 1)
  }

  test("EditDistance: symmetry and identity on random strings") {
    val rng = new Random(9)
    def w(): String = new String(Array.fill(1 + rng.nextInt(12))(('a' + rng.nextInt(4)).toChar))
    for (_ <- 0 until 300) {
      val a = w(); val b = w()
      assert(EditDistance(a, b) == EditDistance(b, a))
      assert(EditDistance(a, a) == 0)
    }
  }

  test("EditDistance: triangle inequality on random strings") {
    val rng = new Random(10)
    def w(): String = new String(Array.fill(1 + rng.nextInt(10))(('a' + rng.nextInt(3)).toChar))
    for (_ <- 0 until 300) {
      val a = w(); val b = w(); val c = w()
      assert(EditDistance(a, c) <= EditDistance(a, b) + EditDistance(b, c))
    }
  }

  test("EditDistance: bounded by max length, at least length difference") {
    val rng = new Random(11)
    def w(): String = new String(Array.fill(rng.nextInt(15))(('a' + rng.nextInt(26)).toChar))
    for (_ <- 0 until 300) {
      val a = w(); val b = w()
      val d = EditDistance(a, b)
      assert(d <= math.max(a.length, b.length))
      assert(d >= math.abs(a.length - b.length))
    }
  }

  test("StringSpace.dist equals EditDistance at pattern lengths 0, 63, 64 and 65") {
    val rng = new Random(14)
    def w(len: Int): String = new String(Array.fill(len)(('a' + rng.nextInt(4)).toChar))
    for (m <- Seq(0, 63, 64, 65); _ <- 0 until 20) {
      val pattern = w(m)
      val texts = Seq(w(m), w(m + 1 + rng.nextInt(40)), pattern + "x", "y" + pattern,
        pattern.reverse + pattern)
      val ss = new StringSpace((pattern +: texts).toArray)
      for (t <- 1 to texts.length) {
        val want = EditDistance(pattern, texts(t - 1)).toDouble
        assert(ss.dist(0, t) == want, s"m=$m text=${texts(t - 1)}")
        assert(ss.dist(t, 0) == want, s"m=$m text=${texts(t - 1)}")
      }
      assert(ss.dist(0, 3) == 1.0 && ss.dist(0, 4) == 1.0)
    }
  }

  test("StringSpace.dist: identical and empty words") {
    val long = "ab" * 40
    val ss = new StringSpace(Array("", "", "kitten", "kitten", "a" * 64, "a" * 64, long, long, "sitting"))
    for (i <- 0 until 8 by 2) assert(ss.dist(i, i + 1) == 0.0 && ss.dist(i, i) == 0.0)
    assert(ss.dist(0, 2) == 6.0 && ss.dist(6, 0) == 80.0)
    assert(ss.dist(2, 8) == 3.0 && ss.dist(8, 2) == 3.0)
    assert(ss.dist(4, 6) == 40.0 && ss.dist(6, 4) == 40.0)
  }

  test("StringSpace.dist equals EditDistance when the alphabet is too large for the tables") {
    val rng = new Random(17)
    val units = (0x100 until 0x100 + 43000).map(_.toChar) // below the surrogate range
    val long = units.grouped(100).map(_.mkString).toArray
    val short = Array.fill(100)(new String(Array.fill(rng.nextInt(31))(units(rng.nextInt(units.length)))))
    // 100 rows of 43,000 symbols exceed the table limit, so every pair runs the DP
    assert(short.length.toLong * units.length > BitParallelEdit.MaxTableWords)
    val words = short ++ long
    val ss = new StringSpace(words)
    for (_ <- 0 until 300) {
      val i = rng.nextInt(words.length); val j = rng.nextInt(words.length)
      assert(ss.dist(i, j) == EditDistance(words(i), words(j)).toDouble)
    }
  }

  test("StringSpace serializes without its kernel tables and keeps its distances") {
    def bytes(o: AnyRef): Array[Byte] = {
      val bos = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bos)
      out.writeObject(o); out.close()
      bos.toByteArray
    }
    val ss = TestSpaces.strings(500, seed = 15)
    val rng = new Random(16)
    val pairs = Seq.fill(300)((rng.nextInt(ss.n), rng.nextInt(ss.n)))
    val before = pairs.map { case (i, j) => ss.dist(i, j) } // builds the tables
    val ser = bytes(ss)
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(ser))
      .readObject().asInstanceOf[StringSpace]
    assert(pairs.map { case (i, j) => copy.dist(i, j) } == before)
    val wordsOnly = bytes(ss.words).length
    assert(ser.length <= 1.1 * wordsOnly, s"space ${ser.length} B vs words ${wordsOnly} B")
  }

  test("StringSpace.dist equals EditDistance") {
    val ss = TestSpaces.strings(80, seed = 12)
    val rng = new Random(13)
    for (_ <- 0 until 200) {
      val i = rng.nextInt(80); val j = rng.nextInt(80)
      assert(ss.dist(i, j) == EditDistance(ss.words(i), ss.words(j)).toDouble)
    }
  }
}
