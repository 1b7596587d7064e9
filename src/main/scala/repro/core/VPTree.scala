package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Vantage-point tree [Yianilos, SODA'93] built exactly as §5.1 of the paper:
  * a random vantage point, a mean-distance split (objects with
  * `dist <= mu` go left), recursing while a node holds more than `capacity`
  * objects.
  *
  * Three roles in the reproduction:
  *  - the VP-tree DOD baseline and the Exact-Counting verification phase use
  *    [[VPTree.rangeCount]] (range counting with early termination at `k`;
  *    verification reads Greedy-Counting's verdicts at the leaves);
  *  - NNDescent+ initialization uses [[VPTree.leftLeafGroups]] (left leaf
  *    nodes seed exact local K-NNs), and its exact K'-NN stage searches the
  *    second round's tree with [[VPTree.knn]];
  *  - MRPG takes its *pivots* from vantage points whose left child is a leaf
  *    (Algorithm 3, line 14) — ball-partitioning spreads them across
  *    subspaces, which Connect-SubGraphs and Remove-Detours rely on.
  */
final class VPTree private[core] (
    val root: VPTree.Node,
    val pivots: Array[Int],
    val leftLeafGroups: Array[Array[Int]],
    val nodeCount: Int,
) extends Serializable {

  /** Number of objects within distance `r` of object `q` (excluding `q`),
    * counting stops once it reaches `cap`.
    */
  def rangeCount(space: MetricSpace, q: Int, r: Double, cap: Int): Int =
    search(space, q, r, cap, null)

  /** [[rangeCount]], reading the verdicts of `walk`, Greedy-Counting's
    * latest walk from `q` with radius `r` on `space`: a leaf object the walk
    * tested is counted from its verdict, and the verdicts read add to
    * `walk.reused`. Vantage points other than `q` are still evaluated,
    * because pruning needs their distance. Same traversal, same count.
    */
  def rangeCount(space: MetricSpace, q: Int, r: Double, cap: Int, walk: GreedyCounting.Walk): Int = {
    require(walk.isFrom(space, q, r), s"a walk from $q with radius $r on this space is needed")
    search(space, q, r, cap, walk)
  }

  /** The range count; `walk` is null when no walk's verdicts are read. */
  private def search(space: MetricSpace, q: Int, r: Double, cap: Int, walk: GreedyCounting.Walk): Int = {
    var count = 0
    var reused = 0L
    def visit(node: VPTree.Node): Unit = {
      if (count >= cap) return
      node match {
        case VPTree.Leaf(ids) =>
          var i = 0
          while (i < ids.length && count < cap) {
            val id = ids(i)
            if (id != q) {
              if (walk != null && walk.decided(id)) {
                reused += 1
                if (walk.inRange(id)) count += 1
              } else if (space.within(q, id, r)) count += 1
            }
            i += 1
          }
        case VPTree.Internal(vp, mu, maxD, left, right) =>
          // at q's own node d = 0, as in knn: every object below lies at
          // its own distance to q from the vantage point
          val d = if (vp == q) 0.0 else space.dist(q, vp)
          val rr = widened(space, r, d, maxD)
          // lower bound of any object under this node is d - maxD
          if (d - maxD > rr) return
          if (vp != q && d <= r) count += 1
          if (count >= cap) return
          if (d <= mu + rr) visit(left)
          if (count < cap && d > mu - rr) visit(right)
      }
    }
    visit(root)
    if (walk != null) walk.reused += reused
    count
  }

  /** The `k` nearest objects to `q` (excluding `q`), ascending by distance
    * and then by id: exactly [[BruteForce.knn]]'s list, ties included.
    *
    * A depth-first search that visits the nearer child first and keeps the
    * best `k` seen in `(distance, id)` order. A subtree is pruned only when
    * its lower bound is strictly above the current k-th distance widened as
    * in [[rangeCount]], so no object whose computed distance ties the k-th,
    * with a smaller id, is lost. Evaluates at most `n - 1` distances, as
    * [[BruteForce.knn]] does.
    */
  def knn(space: MetricSpace, q: Int, k: Int): Array[Int] = {
    val cap = math.max(0, math.min(k, space.n - 1))
    val bestD = new Array[Double](cap)
    val bestId = new Array[Int](cap)
    var size = 0
    // sorted insert, when (d, id) comes before the k-th entry
    def offer(id: Int, d: Double): Unit = {
      def after(i: Int): Boolean = bestD(i) > d || (bestD(i) == d && bestId(i) > id)
      if (size < cap || after(cap - 1)) {
        var pos = if (size < cap) size else cap - 1
        if (size < cap) size += 1
        while (pos > 0 && after(pos - 1)) { bestD(pos) = bestD(pos - 1); bestId(pos) = bestId(pos - 1); pos -= 1 }
        bestD(pos) = d; bestId(pos) = id
      }
    }
    def kth: Double = if (size < cap) Double.PositiveInfinity else bestD(cap - 1)
    def visit(node: VPTree.Node): Unit = node match {
      case VPTree.Leaf(ids) =>
        var i = 0
        while (i < ids.length) {
          val id = ids(i)
          if (id != q) offer(id, space.dist(q, id))
          i += 1
        }
      case VPTree.Internal(vp, mu, maxD, left, right) =>
        // at q's own node every object's distance to q is its distance to
        // vp, bit for bit, so d = 0 prunes exactly the right child's
        // objects beyond the k-th distance
        val d = if (vp == q) 0.0 else space.dist(q, vp)
        if (vp != q) offer(vp, d)
        // the bounds are rangeCount's at r = the k-th distance, each written
        // as "prune when beyond", so a NaN bound prunes nothing; the nearer
        // child's lower bound is at most 0
        if (!(d - maxD > widened(space, kth, d, maxD))) {
          if (d <= mu) {
            visit(left)
            if (!(d <= mu - widened(space, kth, d, maxD))) visit(right)
          } else {
            visit(right)
            if (!(d > mu + widened(space, kth, d, maxD))) visit(left)
          }
        }
    }
    if (cap > 0) visit(root)
    java.util.Arrays.copyOf(bestId, size)
  }

  /** `r` widened for the triangle-inequality bounds at a vantage point at
    * computed distance `d` from the query, whose subtree lies within `maxD`
    * of it: by the space's relative rounding slack on all three distances
    * and its absolute slack, so rounding in `dist` never lets a bound prune
    * an object whose computed distance is within `r`. The one place
    * [[rangeCount]] and [[knn]] take their pruning radius from.
    */
  private def widened(space: MetricSpace, r: Double, d: Double, maxD: Double): Double = {
    val slack = space.roundingSlack
    r * (1 + slack) + slack * (d + maxD) + space.absoluteSlack
  }

  /** Approximate index footprint in bytes (Table 6 accounting). */
  def sizeBytes: Long = {
    var bytes = 0L
    def walk(node: VPTree.Node): Unit = node match {
      case VPTree.Leaf(ids) => bytes += 16L + ids.length * 4L
      case VPTree.Internal(_, _, _, l, r) => bytes += 40L; walk(l); walk(r)
    }
    walk(root)
    bytes
  }
}

object VPTree {
  sealed trait Node extends Serializable
  final case class Internal(vp: Int, mu: Double, maxD: Double, left: Node, right: Node)
      extends Node
  final case class Leaf(ids: Array[Int]) extends Node

  /** Builds a VP-tree over all of `space`. Deterministic in `seed`. */
  def build(space: MetricSpace, capacity: Int, seed: Long): VPTree = {
    require(capacity >= 1, "capacity must be >= 1")
    val rng = new Random(seed)
    val pivots = ArrayBuffer.empty[Int]
    val groups = ArrayBuffer.empty[Array[Int]]
    var nodes = 0

    // isLeftChild: whether this subset arrived as a left child (left leaves
    // seed AKNN initialization per Algorithm 3).
    def rec(subset: Array[Int], isLeftChild: Boolean): Node = {
      nodes += 1
      if (subset.length <= capacity) {
        if (isLeftChild && subset.length > 1) groups += subset
        return Leaf(subset)
      }
      val vp = subset(rng.nextInt(subset.length))
      val rest = subset.filter(_ != vp)
      val dists = rest.map(space.dist(vp, _))
      val mu = dists.sum / dists.length
      val maxD = dists.max
      val lb = ArrayBuffer.empty[Int]
      val rb = ArrayBuffer.empty[Int]
      var i = 0
      while (i < rest.length) {
        if (dists(i) <= mu) lb += rest(i) else rb += rest(i)
        i += 1
      }
      if (lb.isEmpty || rb.isEmpty) {
        // degenerate split (all distances equal): stop recursing
        if (isLeftChild && subset.length > 1) groups += subset
        return Leaf(subset)
      }
      if (lb.length <= capacity) pivots += vp
      val left = rec(lb.toArray, isLeftChild = true)
      val right = rec(rb.toArray, isLeftChild = false)
      Internal(vp, mu, maxD, left, right)
    }

    val root = rec(Array.range(0, space.n), isLeftChild = false)
    new VPTree(root, pivots.distinct.toArray, groups.toArray, nodes)
  }
}
