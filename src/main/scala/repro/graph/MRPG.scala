package repro.graph

import repro.core.{MetricSpace, ParRunner}

/** MRPG builder (§5): NNDescent+ → Connect-SubGraphs → Remove-Detours →
  * Remove-Links, with per-step wall-clock times (Table 4).
  */
object MRPG {

  /** Wall-clock decomposition of one build (milliseconds), the links each
    * step added or removed, and the two bounded loops' reports: the BFSes
    * Remove-Detours' visit cap cut short, and the vertices Connect-SubGraphs
    * left unreached. Both read 0 on the benchmark workloads.
    */
  final case class BuildStats(
      nnDescentMs: Long,
      connectMs: Long,
      removeDetoursMs: Long,
      removeLinksMs: Long,
      iterations: Int,
      linksAddedConnect: Long,
      linksAddedDetours: Long,
      linksRemoved: Long,
      detourCapHits: Long,
      connectUnreached: Int,
  ) {
    def totalMs: Long = nnDescentMs + connectMs + removeDetoursMs + removeLinksMs
  }

  /** K' multiplier: the paper sets K' = 4 x K. */
  val KPrimeFactor = 4

  /** Number of exact-list objects `m`: the paper calls it a constant << n
    * sized to cover probable outliers. 2% of n (floor 64) covers only part
    * of them: outlier ratios at Table 2's (r, k) reach 5.53% (Words), and
    * the lists decide 47% of deep-build's and 35% of words-sweep's outlier
    * verdicts; the rest are verified as candidates.
    */
  def defaultExactCount(n: Int): Int = math.max(64, n / 50)

  /** Builds an MRPG (`basic = false`) or MRPG-basic (`basic = true`: exact
    * lists of length K instead of K'). MRPG-basic's graph has `exactK = 0`,
    * the paper's §6 setup: its exact lists seed its links and count in
    * `sizeBytes` (Table 6), but never decide an object directly.
    * NNDescent+ and Remove-Detours read the space under one key
    * ([[ParRunner.shareSpace]]), so it is shared once.
    */
  def build(
      space: MetricSpace,
      k: Int,
      runner: ParRunner,
      seed: Long = 42L,
      basic: Boolean = false,
      maxIters: Int = 10,
  ): (ProximityGraph, BuildStats) = {
    val n = space.n
    val kPrime = if (basic) k else KPrimeFactor * k
    val cfg = NNDescentConfig(
      K = k,
      vpInit = true,
      skipUnchanged = true,
      exactListSize = kPrime,
      exactCount = defaultExactCount(n),
      maxIters = maxIters,
      seed = seed,
    )

    val t0 = System.nanoTime()
    val aknn = NNDescent.build(space, cfg, runner)
    val t1 = System.nanoTime()

    val isExact = Array.tabulate(n)(v => aknn.exactLists != null && aknn.exactLists(v) != null)

    // adjacency: exact-list vertices link exactly their K' nearest, the rest
    // link their approximate K-NNs
    val adj = AdjacencyStore.of(Array.tabulate(n)(v => if (isExact(v)) aknn.exactLists(v) else aknn.nbrId(v)))

    val connect = ConnectSubgraphs.run(space, adj, aknn.isPivot, isExact, seed ^ 0x5DEECE66DL)
    val t2 = System.nanoTime()

    val detours = RemoveDetours.run(space, adj, aknn.isPivot, isExact, k, runner, seed + 101)
    val t3 = System.nanoTime()

    val removed = RemoveLinks.run(adj, aknn.isPivot, isExact)
    val t4 = System.nanoTime()

    val graph = new ProximityGraph(adj.toRows, aknn.isPivot, aknn.exactLists, if (basic) 0 else math.min(kPrime, n - 1))
    val stats = BuildStats(
      nnDescentMs = (t1 - t0) / 1000000L,
      connectMs = (t2 - t1) / 1000000L,
      removeDetoursMs = (t3 - t2) / 1000000L,
      removeLinksMs = (t4 - t3) / 1000000L,
      iterations = aknn.iterations,
      linksAddedConnect = connect.linksAdded,
      linksAddedDetours = detours.linksAdded,
      linksRemoved = removed,
      detourCapHits = detours.capHits,
      connectUnreached = connect.unreached,
    )
    (graph, stats)
  }
}

/** KGraph baseline: the raw directed AKNN graph built by plain NNDescent
  * (random initialization, no skipping, no exact lists) — the paper's
  * KGraph setup for Algorithms 1–2 without pivot hops.
  */
object KGraphBuilder {
  def build(
      space: MetricSpace,
      k: Int,
      runner: ParRunner,
      seed: Long = 42L,
      maxIters: Int = 10,
  ): ProximityGraph = {
    val cfg = NNDescentConfig(
      K = k,
      vpInit = false,
      skipUnchanged = false,
      exactListSize = 0,
      exactCount = 0,
      maxIters = maxIters,
      seed = seed,
    )
    val aknn = NNDescent.build(space, cfg, runner)
    ProximityGraph.plain(aknn.nbrId)
  }
}
