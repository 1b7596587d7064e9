package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import scala.util.Random

/** `within(i, j, r)` must give `dist(i, j) <= r`'s verdict, bit for bit, for
  * every metric and every `r`: at ties, at the neighbouring doubles, at
  * radii whose power is subnormal or overflows, and on degenerate data.
  */
class WithinSpec extends AnyFunSuite {

  private val vectorMetrics =
    Seq(VectorMetric.L1, VectorMetric.L2, VectorMetric.L4, VectorMetric.Angular)

  /** Radii every pair is tested at: 0 and ±∞, NaN and a negative radius,
    * radii whose square or fourth power is subnormal (1e-160, 1e-80) or
    * zero, and radii whose power overflows.
    */
  private val fixedRadii = Seq(
    0.0, -0.0, -1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity,
    Double.MinPositiveValue, 1e-300, 1e-160, 1e-80, 1e-40,
    1.0, 3.0, 1e80, 1e154, 1e200, Double.MaxValue)

  /** Checks every ordered pair of `ids` at the fixed radii and at the
    * pair's own distance, its neighbouring doubles, half and twice it, plus
    * `extra(i, j)`.
    */
  private def assertAgrees(
      label: String,
      space: MetricSpace,
      ids: Seq[Int] = Nil,
      extra: (Int, Int) => Seq[Double] = (_, _) => Nil,
  ): Unit = {
    val checked = if (ids.isEmpty) 0 until space.n else ids
    for (i <- checked; j <- checked) {
      val d = space.dist(i, j)
      val radii = fixedRadii ++ Seq(d, Math.nextUp(d), Math.nextDown(d), d / 2, d * 2) ++ extra(i, j)
      for (r <- radii)
        assert(space.within(i, j, r) == (d <= r), s"$label: within($i, $j, $r) with dist $d")
    }
  }

  private def randomRows(rng: Random, n: Int, dim: Int, scale: Double): Array[Array[Double]] =
    Array.fill(n, dim)((rng.nextDouble() * 2 - 1) * scale)

  for (m <- vectorMetrics) {
    test(s"${m.name}: within agrees with dist <= r on random rows of 3, 8, 13 and 32 coordinates") {
      val rng = new Random(1)
      for (dim <- Seq(3, 8, 13, 32))
        assertAgrees(s"${m.name} dim=$dim", new VectorSpace(randomRows(rng, 24, dim, 10.0), m))
      assertAgrees(s"${m.name} clustered", TestSpaces.clustered(40, 20, m, seed = 2))
    }

    test(s"${m.name}: within agrees where the powers of r and of the distances are subnormal or overflow") {
      val rng = new Random(3)
      for (scale <- Seq(1e-300, 1e-160, 1e-80, 1e80, 1e154, 1e200, 1e300))
        assertAgrees(s"${m.name} scale=$scale", new VectorSpace(randomRows(rng, 12, 17, scale), m))
    }

    test(s"${m.name}: within agrees on zero vectors and duplicate points") {
      val rng = new Random(4)
      val v = Array.fill(11)(rng.nextDouble())
      val rows = Array(Array.fill(11)(0.0), Array.fill(11)(0.0), v, v.clone, v.map(_ * 2), v.map(-_),
        Array.tabulate(11)(i => if (i == 5) 1.0 else 0.0))
      assertAgrees(s"${m.name} degenerate", new VectorSpace(rows, m))
    }
  }

  test("L1: within agrees on an integer grid, where distances land exactly on integer radii") {
    val grid = Array.tabulate(36)(i => Array((i % 6).toDouble, (i / 6).toDouble, (i % 4).toDouble))
    val space = new VectorSpace(grid, VectorMetric.L1)
    assertAgrees("L1 grid", space, extra = (_, _) => (0 to 12).map(_.toDouble))
  }

  /** ⌊r⌋ at and around the length difference of the pair. */
  private def lengthRadii(ws: Array[String])(i: Int, j: Int): Seq[Double] = {
    val diff = math.abs(ws(i).length - ws(j).length).toDouble
    Seq(diff - 1, diff - 0.5, diff, diff + 0.5, diff + 0.999, diff + 1)
  }

  test("Edit: within agrees on words of length 0, 63, 64 and 65 and their edits") {
    val rng = new Random(5)
    def w(len: Int): String = new String(Array.fill(len)(('a' + rng.nextInt(3)).toChar))
    val ws = (Seq(0, 1, 63, 64, 65).flatMap { len =>
      val base = w(len)
      Seq(base, base + "b", "c" + base, base.reverse, w(len))
    } ++ Seq("a" * 64, "a" * 65, "b" * 63, "", "kitten", "sitting")).toArray
    assertAgrees("edit", new StringSpace(ws), extra = lengthRadii(ws))
  }

  test("Edit: within agrees on pairs whose length difference is exactly floor(r)") {
    val rng = new Random(6)
    def w(len: Int): String = new String(Array.fill(len)(('a' + rng.nextInt(4)).toChar))
    // a word, its prefixes and extensions: distance equals the length difference
    val base = w(20)
    val ws = (Seq(base) ++ (1 to 6).map(c => base.dropRight(c)) ++ (1 to 6).map(c => base + w(c)) ++
      Seq.fill(8)(w(10 + rng.nextInt(20)))).toArray
    val space = new StringSpace(ws)
    assertAgrees("edit length", space, extra = lengthRadii(ws))
    for (c <- 1 to 6) {
      assert(space.within(0, c, c.toDouble) && space.within(0, c, c + 0.5))
      assert(!space.within(0, c, c - 0.5) && !space.within(0, c, Math.nextDown(c.toDouble)))
    }
  }

  test("Edit: within agrees when the alphabet is too large for the tables (DP fallback)") {
    val rng = new Random(7)
    val units = (0x100 until 0x100 + 43000).map(_.toChar) // below the surrogate range
    val long = units.grouped(100).map(_.mkString).toArray
    val short = Array.fill(100)(new String(Array.fill(rng.nextInt(12))(units(rng.nextInt(40)))))
    // 100 rows of 43,000 symbols exceed the table limit, so every pair runs the DP
    assert(short.length.toLong * units.length > BitParallelEdit.MaxTableWords)
    val ws = short ++ long
    assertAgrees("edit fallback", new StringSpace(ws), ids = (0 until 40) ++ (100 until 104),
      extra = lengthRadii(ws))
  }
}
