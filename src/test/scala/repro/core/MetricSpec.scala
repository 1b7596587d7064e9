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

  test("VectorSpace rejects empty input and reports dataBytes") {
    assertThrows[IllegalArgumentException](new VectorSpace(Array.empty, VectorMetric.L2))
    val vs = new VectorSpace(Array.fill(10, 4)(0.0), VectorMetric.L2)
    assert(vs.dataBytes == 10L * 4 * 8)
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

  test("StringSpace.dist equals EditDistance") {
    val ss = TestSpaces.strings(80, seed = 12)
    val rng = new Random(13)
    for (_ <- 0 until 200) {
      val i = rng.nextInt(80); val j = rng.nextInt(80)
      assert(ss.dist(i, j) == EditDistance(ss.words(i), ss.words(j)).toDouble)
    }
  }
}
