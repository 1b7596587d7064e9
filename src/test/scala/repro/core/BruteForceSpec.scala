package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import scala.util.Random

/** The ground-truth helpers themselves, checked against naive re-derivations. */
class BruteForceSpec extends AnyFunSuite {

  private lazy val space = TestSpaces.clustered(300, 5, VectorMetric.L2, seed = 71)

  test("countNeighbors without cap equals a naive filter-count") {
    val rng = new Random(72)
    for (_ <- 0 until 50) {
      val p = rng.nextInt(space.n)
      val r = 2.0 + rng.nextDouble() * 20
      val naive = (0 until space.n).count(i => i != p && space.dist(p, i) <= r)
      assert(BruteForce.countNeighbors(space, p, r, Int.MaxValue) == naive)
    }
  }

  test("countNeighbors respects the cap") {
    val rng = new Random(73)
    for (_ <- 0 until 50) {
      val p = rng.nextInt(space.n)
      val cap = 1 + rng.nextInt(20)
      val got = BruteForce.countNeighbors(space, p, 15.0, cap)
      assert(got == math.min(cap, BruteForce.countNeighbors(space, p, 15.0, Int.MaxValue)))
    }
  }

  test("the reference counts on dist, so a wrong within cannot reach it") {
    // within answers the opposite of dist <= r; the linear-scan verifier
    // follows it, the ground truth does not
    val liar = new MetricSpace {
      def n = space.n
      def dist(i: Int, j: Int) = space.dist(i, j)
      override def within(i: Int, j: Int, r: Double) = !space.within(i, j, r)
      def roundingSlack = space.roundingSlack
    }
    for (p <- 0 until 20) {
      val naive = (0 until space.n).count(i => i != p && space.dist(p, i) <= 12.0)
      assert(BruteForce.countNeighbors(liar, p, 12.0, Int.MaxValue) == naive)
      assert(LinearScanCounter().count(liar, p, 12.0, Int.MaxValue, null) == space.n - 1 - naive)
    }
  }

  test("outliers = objects whose exact count is below k") {
    for ((r, k) <- Seq((8.0, 5), (12.0, 20))) {
      val expected = (0 until space.n).filter(p => BruteForce.countNeighbors(space, p, r, Int.MaxValue) < k)
      assert(BruteForce.outliers(space, r, k).toSeq == expected)
    }
  }

  test("knn returns the k nearest in ascending order, excluding self") {
    val rng = new Random(74)
    for (_ <- 0 until 30) {
      val p = rng.nextInt(space.n)
      val k = 1 + rng.nextInt(15)
      val got = BruteForce.knn(space, p, k)
      assert(got.length == k)
      assert(!got.contains(p))
      val ds = got.map(space.dist(p, _))
      assert(ds.sameElements(ds.sorted))
      // the k-th distance is a lower bound for everything not selected
      val maxSel = ds.max
      val others = (0 until space.n).filterNot(i => i == p || got.contains(i))
      assert(others.forall(i => space.dist(p, i) >= maxSel - 1e-9))
    }
  }

  test("knn with k >= n-1 returns everything") {
    val s = TestSpaces.uniform(20, 3, VectorMetric.L2, seed = 75)
    val got = BruteForce.knn(s, 0, 30)
    assert(got.sorted.toSeq == (1 until 20))
  }

  test("knn equals sorting by (dist, id) and taking k, ties included") {
    val strings = TestSpaces.strings(60, seed = 76) // integer distances
    val duplicates = new VectorSpace(Array.tabulate(40)(i => Array((i % 4).toDouble, 1.0)), VectorMetric.L2)
    val grid = new VectorSpace(Array.tabulate(49)(i => Array((i % 7).toDouble, (i / 7).toDouble)), VectorMetric.L1)
    val single = TestSpaces.uniform(1, 3, VectorMetric.L2, seed = 77) // a zero-capacity row
    for ((name, s) <- Seq("strings" -> strings, "duplicates" -> duplicates, "L1 grid" -> grid, "one object" -> single)) {
      val n = s.n
      for (p <- Seq(0, n / 2, n - 1); k <- Seq(0, 1, 5, n - 2, n - 1, n + 3)) {
        val expected = (0 until n).filter(_ != p).sortBy(i => (s.dist(p, i), i)).take(k).toArray
        val counting = new CountingSpace(s)
        assert(BruteForce.knn(counting, p, k).sameElements(expected), s"$name p=$p k=$k")
        assert(counting.evaluations == n - 1, s"$name p=$p k=$k")
      }
    }
  }
}
