package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import scala.util.Random

/** VP-tree build invariants and range-count correctness vs brute force. */
class VPTreeSpec extends AnyFunSuite {

  private def spaces = Seq(
    "l2" -> TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 21),
    "l1" -> TestSpaces.clustered(400, 6, VectorMetric.L1, seed = 22),
    "l4" -> TestSpaces.clustered(300, 8, VectorMetric.L4, seed = 23),
    "angular" -> TestSpaces.angular(400, 10, seed = 24),
    "edit" -> TestSpaces.strings(300, seed = 25),
    "uniform" -> TestSpaces.uniform(300, 5, VectorMetric.L2, seed = 26),
  )

  private def radiiFor(space: MetricSpace): Seq[Double] = {
    // sample pairwise distances and take spread quantiles as query radii
    val rng = new Random(99)
    val ds = Seq.fill(300)(space.dist(rng.nextInt(space.n), rng.nextInt(space.n))).sorted
    Seq(ds(30), ds(150), ds(280)).distinct
  }

  for ((name, space) <- spaces) {
    test(s"$name: uncapped range counts match brute force at three radii") {
      val tree = VPTree.build(space, capacity = 16, seed = 5)
      val rng = new Random(31)
      for (r <- radiiFor(space); _ <- 0 until 30) {
        val q = rng.nextInt(space.n)
        assert(
          tree.rangeCount(space, q, r, Int.MaxValue) == BruteForce.countNeighbors(space, q, r, Int.MaxValue),
          s"query $q radius $r")
      }
    }

    test(s"$name: capped range count stops at the cap and is a lower bound") {
      val tree = VPTree.build(space, capacity = 16, seed = 5)
      val rng = new Random(32)
      for (r <- radiiFor(space); _ <- 0 until 20) {
        val q = rng.nextInt(space.n)
        val cap = 1 + rng.nextInt(10)
        val got = tree.rangeCount(space, q, r, cap)
        val full = BruteForce.countNeighbors(space, q, r, Int.MaxValue)
        assert(got == math.min(cap, full), s"query $q radius $r cap $cap")
      }
    }
  }

  test("range counting keeps a neighbour whose computed distances break a pruning bound by an ulp") {
    // a, m, b on one line, m between: their computed L2 distances break the
    // triangle inequality in the last place, d(a, b) - d(a, m) > d(m, b)
    val a = Array(-1.010178704225238, 3.031859454455258)
    val m = Array(0.4621469924345232, 0.6112019018965662)
    val b = Array(5.7744670227102635, -8.122808264515303)
    val space = new VectorSpace(Array(a, m, b, Array(100.0, 100.0)), VectorMetric.L2)
    val (dam, dmb, dab, daf) = (space.dist(0, 1), space.dist(1, 2), space.dist(0, 2), space.dist(0, 3))
    def tree(root: VPTree.Node) = new VPTree(root, Array.empty, Array.empty, 3)
    val empty = VPTree.Leaf(Array.empty[Int])
    // each tree holds the vantage point a and one neighbour of the query q
    // at r = d(m, b), which the unwidened bound would prune
    val cases = Seq(
      // q = b: the node's lower bound d - maxD passes r
      ("d - maxD > r", tree(VPTree.Internal(0, dam, dam, VPTree.Leaf(Array(1)), empty)), 2, 1),
      // q = b: the left bound mu + r falls below d
      ("d > mu + r", tree(VPTree.Internal(0, dam, daf, VPTree.Leaf(Array(1)), VPTree.Leaf(Array(3)))), 2, 1),
      // q = m: the right bound mu - r reaches d
      ("d <= mu - r", tree(VPTree.Internal(0, Math.nextDown(dab), dab, empty, VPTree.Leaf(Array(2)))), 1, 2),
    )
    for ((bound, t, q, neighbour) <- cases) {
      assert(space.within(q, neighbour, dmb), bound)
      assert(t.rangeCount(space, q, dmb, Int.MaxValue) == BruteForce.countNeighbors(space, q, dmb, Int.MaxValue), bound)
    }
  }

  test("every object appears exactly once in the tree") {
    val space = TestSpaces.clustered(500, 4, VectorMetric.L2, seed = 41)
    val tree = VPTree.build(space, capacity = 8, seed = 6)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Int]
    def walk(node: VPTree.Node): Unit = node match {
      case VPTree.Leaf(ids) => seen ++= ids
      case VPTree.Internal(vp, _, _, l, r) => seen += vp; walk(l); walk(r)
    }
    walk(tree.root)
    assert(seen.sorted.toSeq == (0 until 500))
  }

  test("internal split invariant: left within mu, right beyond mu, maxD holds") {
    val space = TestSpaces.clustered(400, 4, VectorMetric.L2, seed = 42)
    val tree = VPTree.build(space, capacity = 8, seed = 7)
    def subtree(node: VPTree.Node): Seq[Int] = node match {
      case VPTree.Leaf(ids) => ids.toSeq
      case VPTree.Internal(vp, _, _, l, r) => vp +: (subtree(l) ++ subtree(r))
    }
    def walk(node: VPTree.Node): Unit = node match {
      case VPTree.Leaf(_) => ()
      case VPTree.Internal(vp, mu, maxD, l, r) =>
        subtree(l).foreach(id => assert(space.dist(vp, id) <= mu + 1e-9))
        subtree(r).foreach(id => assert(space.dist(vp, id) > mu - 1e-9))
        (subtree(l) ++ subtree(r)).foreach(id => assert(space.dist(vp, id) <= maxD + 1e-9))
        walk(l); walk(r)
    }
    walk(tree.root)
  }

  test("pivots are vantage points and spread across the data (o(n) of them)") {
    val space = TestSpaces.clustered(800, 6, VectorMetric.L2, seed = 43)
    val tree = VPTree.build(space, capacity = 20, seed = 8)
    assert(tree.pivots.nonEmpty)
    assert(tree.pivots.length < space.n / 4)
    assert(tree.pivots.distinct.length == tree.pivots.length)
    assert(tree.pivots.forall(p => p >= 0 && p < space.n))
  }

  test("left leaf groups are disjoint-from-self, small, and valid ids") {
    val space = TestSpaces.clustered(600, 6, VectorMetric.L2, seed = 44)
    val cap = 24
    val tree = VPTree.build(space, capacity = cap, seed = 9)
    assert(tree.leftLeafGroups.nonEmpty)
    tree.leftLeafGroups.foreach { g =>
      assert(g.length <= cap)
      assert(g.distinct.length == g.length)
      g.foreach(id => assert(id >= 0 && id < space.n))
    }
  }

  test("left leaf groups hold mutually close objects (closer than random pairs)") {
    val space = TestSpaces.clustered(600, 6, VectorMetric.L2, seed = 45)
    val tree = VPTree.build(space, capacity = 24, seed = 10)
    val rng = new Random(46)
    val groupDists = tree.leftLeafGroups.take(20).flatMap { g =>
      Seq.fill(10)(space.dist(g(rng.nextInt(g.length)), g(rng.nextInt(g.length))))
    }
    val randomDists = Seq.fill(200)(space.dist(rng.nextInt(space.n), rng.nextInt(space.n)))
    assert(groupDists.sum / groupDists.length < randomDists.sum / randomDists.length)
  }

  test("build is deterministic in the seed") {
    val space = TestSpaces.clustered(300, 4, VectorMetric.L2, seed = 47)
    val a = VPTree.build(space, capacity = 10, seed = 11)
    val b = VPTree.build(space, capacity = 10, seed = 11)
    assert(a.pivots.toSeq == b.pivots.toSeq)
    assert(a.nodeCount == b.nodeCount)
    val rng = new Random(48)
    for (_ <- 0 until 50) {
      val q = rng.nextInt(space.n)
      assert(a.rangeCount(space, q, 10.0, 50) == b.rangeCount(space, q, 10.0, 50))
    }
  }

  test("degenerate data (all-identical points) builds a leaf and counts right") {
    val space = new VectorSpace(Array.fill(50, 3)(1.0), VectorMetric.L2)
    val tree = VPTree.build(space, capacity = 8, seed = 12)
    assert(tree.rangeCount(space, 0, 0.1, Int.MaxValue) == 49)
  }

  test("subset build only contains the subset") {
    val space = TestSpaces.clustered(200, 4, VectorMetric.L2, seed = 49)
    val ids = Array.range(0, 100)
    val tree = VPTree.build(space, ids, capacity = 8, seed = 13)
    // counts must never exceed the subset's brute-force count
    val rng = new Random(50)
    for (_ <- 0 until 30) {
      val q = rng.nextInt(100)
      val expected = ids.count(i => i != q && space.dist(q, i) <= 8.0)
      assert(tree.rangeCount(space, q, 8.0, Int.MaxValue) == expected)
    }
  }

  test("sizeBytes is positive and grows with n") {
    val small = VPTree.build(TestSpaces.uniform(100, 4, VectorMetric.L2, seed = 51), 8, 1)
    val large = VPTree.build(TestSpaces.uniform(1000, 4, VectorMetric.L2, seed = 52), 8, 1)
    assert(small.sizeBytes > 0)
    assert(large.sizeBytes > small.sizeBytes)
  }
}
