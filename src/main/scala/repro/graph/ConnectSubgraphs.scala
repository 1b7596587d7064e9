package repro.graph

import repro.core.MetricSpace
import scala.collection.mutable
import scala.util.Random

/** §5.2 / Algorithm 4: make the AKNN graph (strongly) connected.
  *
  * Phase 1 adds reverse-AKNN links (the directed AKNN graph becomes
  * undirected), except into vertices carrying exact K'-NN lists — their link
  * sets stay exactly their K' nearest (they remain reachable through the
  * reverse links added *from* them). Phase 2 repeatedly BFSes; while some
  * objects are unreached, it greedily ANN-searches from a few reached pivots
  * toward an unreached pivot (hop-limited to 10 as in the paper) and links
  * the closest pair found.
  *
  * The exact-list guard holds in phase 1 only: phase 2 links its pair both
  * ways, so an unreached exact-list target can gain one link beyond its K'
  * nearest (one such vertex in the Deep (0.5) MRPG, none at that scale on
  * the other six datasets). It is appended, so the exact list stays the
  * prefix of the row, which is where the §5.5 direct decision reads it.
  */
object ConnectSubgraphs {

  val AnnMaxHops = 10
  val StartPivots = 5 // |V_piv|, "a small constant"

  /** Links added, and the vertices left unreached when the guard (`n`
    * rounds) stopped the search. Each round links and reaches its target,
    * so that count reads 0 on every input; it is reported, not assumed.
    */
  final case class Result(linksAdded: Long, unreached: Int)

  /** Mutates `adj`. */
  def run(
      space: MetricSpace,
      adj: AdjacencyStore,
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
      seed: Long,
  ): Result = {
    val n = adj.n
    val rng = new Random(seed)
    var added = 0L

    // ---- reverse AKNN phase --------------------------------------------
    // over a snapshot of the links each row had when the phase began
    val (aknnOffsets, aknnLinks) = adj.toCsr
    var v = 0
    while (v < n) {
      var i = aknnOffsets(v)
      while (i < aknnOffsets(v + 1)) {
        val u = aknnLinks(i)
        if (!isExact(u) && adj.add(u, v)) added += 1
        i += 1
      }
      v += 1
    }

    // ---- BFS with ANN phase --------------------------------------------
    val visited = new java.util.BitSet(n)
    val queue = new Array[Int](n) // a vertex is enqueued once over all BFSes
    var reached = 0

    def bfsFrom(s: Int): Unit = {
      if (visited.get(s)) return
      visited.set(s); reached += 1
      var head = 0
      var tail = 0
      queue(tail) = s; tail += 1
      while (head < tail) {
        val x = queue(head)
        head += 1
        val row = adj.ids(x)
        var i = 0
        while (i < adj.size(x)) {
          val w = row(i)
          if (!visited.get(w)) {
            visited.set(w); reached += 1; queue(tail) = w; tail += 1
          }
          i += 1
        }
      }
    }

    // ascending ids read off `visited`: `pivots` holds the pivots of one
    // side, `all` every id of that side when it has no pivot
    val pivots = new Array[Int](n)
    val all = new Array[Int](n)
    // the ids on the `reachedSide` of `visited` into `into`, pivots only if
    // `onlyPivots`; returns how many
    def collect(reachedSide: Boolean, onlyPivots: Boolean, into: Array[Int]): Int = {
      var m = 0
      var v = if (reachedSide) visited.nextSetBit(0) else visited.nextClearBit(0)
      while (v >= 0 && v < n) {
        if (!onlyPivots || isPivot(v)) { into(m) = v; m += 1 }
        v = if (reachedSide) visited.nextSetBit(v + 1) else visited.nextClearBit(v + 1)
      }
      m
    }

    bfsFrom(rng.nextInt(n))
    var guard = 0
    while (reached < n && guard < n) {
      guard += 1
      // a random unreached object, preferring pivots (v'_piv)
      val nUnreachedPivots = collect(reachedSide = false, onlyPivots = true, pivots)
      val target =
        if (nUnreachedPivots > 0) pivots(rng.nextInt(nUnreachedPivots))
        else all(rng.nextInt(collect(reachedSide = false, onlyPivots = false, all)))

      val nReachedPivots = collect(reachedSide = true, onlyPivots = true, pivots)
      val starts =
        (if (nReachedPivots > 0) Seq.fill(StartPivots)(pivots(rng.nextInt(nReachedPivots)))
         else {
           val nReached = collect(reachedSide = true, onlyPivots = false, all)
           Seq.fill(StartPivots)(all(rng.nextInt(nReached)))
         }).distinct

      // the walks only read `adj` and share one memo of distances to the
      // target; the pair is linked once every start has walked
      val known = mutable.HashMap.empty[Int, Double]
      val toTarget = (v: Int) => known.getOrElseUpdate(v, space.dist(target, v))
      var best = -1
      var bestD = Double.MaxValue
      starts.foreach { s =>
        val ann = greedyAnnSearch(adj, s, target, AnnMaxHops)(toTarget)
        val d = toTarget(ann)
        if (d < bestD) { bestD = d; best = ann }
      }
      if (best >= 0 && best != target) {
        if (adj.add(target, best)) added += 1
        if (adj.add(best, target)) added += 1
      }
      bfsFrom(target)
    }
    Result(added, n - reached)
  }

  /** Kept for perfbench (see [[AdjacencyStore.editSets]]): [[run]] on
    * `LinkedHashSet` rows; returns the number of links added.
    */
  def run(
      space: MetricSpace,
      adj: Array[mutable.LinkedHashSet[Int]],
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
      seed: Long,
  ): Long = AdjacencyStore.editSets(adj)(run(space, _, isPivot, isExact, seed).linksAdded)

  /** Greedy ANN search (§5.2): walk from `start` toward `query` over the
    * links of `adj`, at most `maxHops` hops, returning the closest vertex
    * reached. Each hop moves to the current vertex's closest neighbour (the
    * first in row order among equals) while that one is strictly closer;
    * `query` itself is never stepped onto. `dist(v)` is `v`'s distance to
    * `query`, which both callers read through a memo (one per
    * Connect-SubGraphs round, one per NSW insertion).
    */
  def greedyAnnSearch(adj: AdjacencyStore, start: Int, query: Int, maxHops: Int)(dist: Int => Double): Int = {
    var cur = start
    var curD = dist(cur)
    var hops = 0
    var improved = true
    while (improved && hops < maxHops) {
      improved = false
      val row = adj.ids(cur)
      var best = cur
      var bestD = curD
      var i = 0
      while (i < adj.size(cur)) {
        val w = row(i)
        if (w != query) {
          val dw = dist(w)
          if (dw < bestD) { best = w; bestD = dw }
        }
        i += 1
      }
      if (best != cur) { cur = best; curD = bestD; improved = true; hops += 1 }
    }
    cur
  }
}
