package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import repro.data.Datasets
import repro.graph.MRPG
import scala.util.Random

/** VP-tree build invariants, and range counts and k-NN lists vs brute force. */
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

  test("a range count from a vantage point evaluates one distance fewer than from a copy of it") {
    val l2 = TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 27)
    val edit = TestSpaces.strings(300, seed = 28)
    // each space with its object q appended as object n: the copy's
    // distances equal q's bit for bit, so its search takes the same path
    // and evaluates q's node, where q's own search takes d = 0
    val cases = Seq[(String, MetricSpace, Int => MetricSpace)](
      ("l2", l2, q => new VectorSpace(l2.points :+ l2.points(q), VectorMetric.L2)),
      ("edit", edit, q => new StringSpace(edit.words :+ edit.words(q))),
    )
    for ((name, space, withCopyOf) <- cases) {
      val tree = VPTree.build(space, capacity = 16, seed = 5)
      def vantagePoints(node: VPTree.Node): Seq[Int] = node match {
        case VPTree.Internal(vp, _, _, l, r) => vp +: (vantagePoints(l) ++ vantagePoints(r))
        case VPTree.Leaf(_) => Seq.empty
      }
      val vps = vantagePoints(tree.root)
      assert(vps.nonEmpty, name)
      for (q <- vps.take(12); r <- radiiFor(space)) {
        val own = new CountingSpace(space)
        val copy = new CountingSpace(withCopyOf(q))
        val got = tree.rangeCount(own, q, r, Int.MaxValue)
        assert(got == BruteForce.countNeighbors(space, q, r, Int.MaxValue), s"$name q=$q r=$r")
        // the copy also counts q itself, at distance 0
        assert(tree.rangeCount(copy, space.n, r, Int.MaxValue) == got + 1, s"$name q=$q r=$r")
        assert(own.evaluations == copy.evaluations - 1, s"$name q=$q r=$r")
      }
    }
  }

  test("degenerate data (all-identical points) builds a leaf and counts right") {
    val space = new VectorSpace(Array.fill(50, 3)(1.0), VectorMetric.L2)
    val tree = VPTree.build(space, capacity = 8, seed = 12)
    assert(tree.rangeCount(space, 0, 0.1, Int.MaxValue) == 49)
  }

  // ---- k-NN search -------------------------------------------------------

  /** Asserts that `tree.knn` returns [[BruteForce.knn]]'s list, ids in
    * order, for every object of `space` and every `k` of `ks`.
    */
  private def assertKnnExact(label: String, space: MetricSpace, tree: VPTree, ks: Seq[Int]): Unit =
    for (q <- 0 until space.n; k <- ks) {
      val got = tree.knn(space, q, k)
      val want = BruteForce.knn(space, q, k)
      assert(got.sameElements(want), s"$label q=$q k=$k: got ${got.mkString(",")}, want ${want.mkString(",")}")
    }

  /** `k` from 0 to past `n`, `n - 1` and `n` included. */
  private def allKs(n: Int): Seq[Int] = 0 to n + 2

  for (spec <- Datasets.all)
    test(s"${spec.name}: knn equals BruteForce.knn for every object at K and K' on NNDescent+'s tree") {
      val space = spec.space(0.05)
      val k = spec.graphK
      val tree = VPTree.build(space, math.max(2 * k, 8), seed = spec.seed)
      assertKnnExact(spec.name, space, tree, Seq(k, MRPG.KPrimeFactor * k, space.n - 1))
    }

  test("knn on all-identical points (one degenerate leaf) and on groups of copies") {
    val identical = TestSpaces.identical
    assert(VPTree.build(identical, 4, seed = 13).root.isInstanceOf[VPTree.Leaf])
    for ((label, space) <- Seq("identical" -> identical, "copies" -> TestSpaces.copies); cap <- Seq(1, 4, 8))
      assertKnnExact(s"$label cap=$cap", space, VPTree.build(space, cap, seed = 13), allKs(space.n))
  }

  test("knn on integer L1 grids: many ties at the k-th distance") {
    for (side <- Seq(6, 11); cap <- Seq(1, 4, 40)) {
      val space = TestSpaces.grid(side)
      assertKnnExact(s"grid $side cap=$cap", space, VPTree.build(space, cap, seed = 14), Seq(1, 3, 4, 8, 12, 16, 24, 40))
    }
  }

  test("knn on angular near-duplicates and zero vectors") {
    val near = TestSpaces.angularNearDuplicates
    val withZeros = new VectorSpace(near.points ++ Array.fill(3)(new Array[Double](8)), VectorMetric.Angular)
    for ((label, space) <- Seq("near-duplicates" -> near, "with zero vectors" -> withZeros); cap <- Seq(1, 4, 8))
      assertKnnExact(s"$label cap=$cap", space, VPTree.build(space, cap, seed = 15), allKs(space.n))
  }

  test("knn on words with duplicates and empty strings") {
    val space = TestSpaces.adversarialWords
    for (cap <- Seq(1, 4, 8))
      assertKnnExact(s"cap=$cap", space, VPTree.build(space, cap, seed = 16), allKs(space.n))
  }

  test("knn with k >= n - 1, and on one- and two-object spaces") {
    for ((label, space) <- TestSpaces.tiny)
      assertKnnExact(label, space, VPTree.build(space, 1, seed = 17), allKs(space.n))
    val space = TestSpaces.clustered(60, 3, VectorMetric.L2, seed = 18)
    assertKnnExact("clustered", space, VPTree.build(space, 4, seed = 18), Seq(58, 59, 60, 100))
  }

  test("knn equals BruteForce.knn on random small spaces full of duplicates and ties") {
    val rng = new Random(19)
    for (trial <- 0 until 60) {
      val n = 1 + rng.nextInt(50)
      val metric = if (trial % 2 == 0) VectorMetric.L1 else VectorMetric.L2
      val space = new VectorSpace(Array.fill(n, 2)(rng.nextInt(3).toDouble), metric)
      val tree = VPTree.build(space, 1 + rng.nextInt(8), seed = trial)
      assertKnnExact(s"trial $trial", space, tree, Seq(rng.nextInt(n + 2), rng.nextInt(n + 2)))
    }
  }

  test("knn keeps a tie at the k-th distance with a smaller id that the search reaches last") {
    // words of 'a's: dist = length difference, computed exactly (no slack).
    // From q = 0 (length 10): c = 3 at 1, and a = 1 and b = 2 tie at 4.
    val space = new StringSpace(Array(10, 14, 6, 9, 20).map("a" * _))
    val (q, a, b, c, vp) = (0, 1, 2, 3, 4)
    // vp is 10 from q, beyond mu = 6, so the search visits the right leaf
    // first and reaches b before a; after it the 2nd distance is 4, and
    // the left leaf's lower bound d - mu is exactly 4
    val (mu, maxD) = (6.0, 14.0)
    assert(space.dist(vp, a) <= mu && Seq(b, c, q).forall(v => space.dist(vp, v) > mu))
    assert(Seq(a, b, c, q).map(space.dist(vp, _)).max == maxD)
    val tree = new VPTree(
      VPTree.Internal(vp, mu, maxD, VPTree.Leaf(Array(a)), VPTree.Leaf(Array(b, c, q))),
      Array.empty, Array.empty, 3)
    assert(space.dist(q, a) == 4.0 && space.dist(q, b) == 4.0 && space.dist(q, c) == 1.0)
    assert(tree.knn(space, q, 2).toSeq == Seq(c, a), "the tie with the smaller id is dropped")
    assert(tree.knn(space, q, 3).toSeq == Seq(c, a, b), "the tie is reordered")
    for (k <- 0 to 5) assert(tree.knn(space, q, k).sameElements(BruteForce.knn(space, q, k)), s"k=$k")
  }

  test("sizeBytes is positive and grows with n") {
    val small = VPTree.build(TestSpaces.uniform(100, 4, VectorMetric.L2, seed = 51), 8, 1)
    val large = VPTree.build(TestSpaces.uniform(1000, 4, VectorMetric.L2, seed = 52), 8, 1)
    assert(small.sizeBytes > 0)
    assert(large.sizeBytes > small.sizeBytes)
  }
}
