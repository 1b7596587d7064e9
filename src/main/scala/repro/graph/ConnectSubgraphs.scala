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
  * the other six datasets). Detection is unaffected: the §5.5 direct
  * decision reads `exactLists`, not `adj`.
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
    val snapshot = adj.csr
    var v = 0
    while (v < n) {
      var i = snapshot.off(v)
      while (i < snapshot.off(v + 1)) {
        val u = snapshot.ids(i)
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
        val row = adj.slots(x)
        var i = 0
        while (i < adj.end(x)) {
          val w = row(i)
          if (w != AdjacencyStore.Gone && !visited.get(w)) {
            visited.set(w); reached += 1; queue(tail) = w; tail += 1
          }
          i += 1
        }
      }
    }

    bfsFrom(rng.nextInt(n))
    var guard = 0
    while (reached < n && guard < n) {
      guard += 1
      // a random unreached object, preferring pivots (v'_piv)
      val unreached = (0 until n).filter(!visited.get(_))
      val unreachedPivots = unreached.filter(isPivot(_))
      val target =
        if (unreachedPivots.nonEmpty) unreachedPivots(rng.nextInt(unreachedPivots.length))
        else unreached(rng.nextInt(unreached.length))

      val reachedIds = (0 until n).filter(visited.get)
      val reachedPivots = reachedIds.filter(isPivot(_))
      val starts =
        (if (reachedPivots.nonEmpty)
           Seq.fill(StartPivots)(reachedPivots(rng.nextInt(reachedPivots.length)))
         else Seq.fill(StartPivots)(reachedIds(rng.nextInt(reachedIds.length)))).distinct

      // the walks only read `adj`; the pair is linked once every start has walked
      var best = -1
      var bestD = Double.MaxValue
      starts.foreach { s =>
        val ann = greedyAnnSearch(space, adj, s, target, AnnMaxHops)
        val d = space.dist(ann, target)
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
    * links of `adj`, hop-limited, returning the closest vertex reached.
    */
  def greedyAnnSearch(
      space: MetricSpace,
      adj: AdjacencyStore,
      start: Int,
      query: Int,
      maxHops: Int,
  ): Int = {
    var cur = start
    var curD = space.dist(query, cur)
    var hops = 0
    var improved = true
    while (improved && hops < maxHops) {
      improved = false
      val row = adj.slots(cur)
      var best = cur
      var bestD = curD
      var i = 0
      while (i < adj.end(cur)) {
        val w = row(i)
        if (w != AdjacencyStore.Gone && w != query) {
          val dw = space.dist(query, w)
          if (dw < bestD) { best = w; bestD = dw }
        }
        i += 1
      }
      if (best != cur) { cur = best; curD = bestD; improved = true; hops += 1 }
    }
    cur
  }
}
