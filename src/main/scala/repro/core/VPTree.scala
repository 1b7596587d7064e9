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
  *    nodes seed exact local K-NNs);
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
    * `walk.reused`. Vantage points are still evaluated, because pruning
    * needs their distance. Same traversal, same count.
    */
  def rangeCount(space: MetricSpace, q: Int, r: Double, cap: Int, walk: GreedyCounting.Walk): Int = {
    require(walk.isFrom(space, q, r), s"a walk from $q with radius $r on this space is needed")
    search(space, q, r, cap, walk)
  }

  /** The range count; `walk` is null when no walk's verdicts are read. */
  private def search(space: MetricSpace, q: Int, r: Double, cap: Int, walk: GreedyCounting.Walk): Int = {
    val slack = space.roundingSlack
    val absolute = space.absoluteSlack
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
          val d = space.dist(q, vp)
          // the triangle-inequality bounds take r widened by the space's
          // rounding slacks, so rounding never prunes a computed neighbour
          val rr = r * (1 + slack) + slack * (d + maxD) + absolute
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
