package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class FlowSccSpec extends AnyFunSuite {

  /** A network of the directed arcs (u, v, c), solved at capacities c. */
  private def network(n: Int, arcs: Seq[(Int, Int, Long)]): FlowNetwork = {
    val net = new FlowNetwork(
      n,
      arcs.flatMap { case (u, v, _) => Seq(u, v) }.toArray,
      arcs.flatMap { case (_, _, c) => Seq(c, 0L) }.toArray,
      new Array[Long](2 * arcs.length),
    )
    net.setCapacities(0L, 1L)
    net
  }

  /** The digraph `adj` as a network whose residual graph is `adj`. */
  private def residualOf(adj: Array[Array[Int]]): FlowNetwork =
    network(adj.length, for (u <- adj.indices; v <- adj(u)) yield (u, v, 1L))

  test("max flow on a classic small network") {
    // CLRS-style: s=0, t=5.
    val net = network(6, Seq(
      (0, 1, 16L), (0, 2, 13L),
      (1, 3, 12L), (2, 1, 4L),
      (3, 2, 9L), (2, 4, 14L),
      (4, 3, 7L), (3, 5, 20L),
      (4, 5, 4L)))
    assert(net.maxFlow(0, 5) == 23L)
    val cut = net.minCutSourceSide(0)
    assert(cut(0) && !cut(5))
  }

  test("max flow equals brute-force min cut on random networks") {
    val rnd = new Random(7)
    for (_ <- 0 until 40) {
      val n = 4 + rnd.nextInt(4)
      val arcs = for {
        u <- 0 until n; v <- 0 until n
        if u != v && rnd.nextDouble() < 0.45
      } yield (u, v, 1L + rnd.nextInt(10).toLong)
      val net = network(n, arcs)
      val s = 0; val t = n - 1
      val flow = net.maxFlow(s, t)
      // Brute-force min cut over all node bipartitions with s in S, t out.
      var best = Long.MaxValue
      for (mask <- 0 until (1 << n); if (mask & 1) == 1 && (mask & (1 << t)) == 0) {
        val inS = (v: Int) => (mask & (1 << v)) != 0
        val cut = arcs.collect { case (u, v, c) if inS(u) && !inS(v) => c }.sum
        best = math.min(best, cut)
      }
      assert(flow == best, s"flow $flow != min cut $best")
    }
  }

  test("minCutSourceSide is a minimum cut witness") {
    val rnd = new Random(13)
    for (_ <- 0 until 30) {
      val n = 4 + rnd.nextInt(4)
      val arcs = for {
        u <- 0 until n; v <- 0 until n
        if u != v && rnd.nextDouble() < 0.4
      } yield (u, v, 1L + rnd.nextInt(5).toLong)
      val net = network(n, arcs)
      val flow = net.maxFlow(0, n - 1)
      val side = net.minCutSourceSide(0)
      assert(side(0) && !side(n - 1))
      val cutVal = arcs.collect { case (u, v, c) if side(u) && !side(v) => c }.sum
      assert(cutVal == flow)
    }
  }

  test("max flow on a chain through 100,000 nodes runs without recursion") {
    // s=0 -> 2 -> 3 -> ... -> k+1 -> t=1: one augmenting path k+1 arcs long.
    val k = 100000
    val arcs = (0 +: (2 to k + 1)).zip((2 to k + 1) :+ 1).map { case (u, v) => (u, v, 5L) }
    val net = network(k + 2, arcs)
    assert(net.maxFlow(0, 1) == 5L)
    assert(net.minCutSourceSide(0).count(identity) == 1)
  }

  test("a network solved at a second guess equals one solved only at it") {
    // Capacities capB*b + capA*a on random pair networks; solving at one
    // guess and then another must leave no trace of the first solve.
    val rnd = new Random(41)
    for (_ <- 0 until 40) {
      val n = 4 + rnd.nextInt(5)
      val pairs = for {
        u <- 0 until n; v <- 0 until n
        if u != v && rnd.nextDouble() < 0.4
      } yield (u, v)
      val ends = pairs.flatMap { case (u, v) => Seq(u, v) }.toArray
      val capB = Array.fill(ends.length)(rnd.nextInt(4).toLong)
      val capA = Array.fill(ends.length)(if (rnd.nextBoolean()) rnd.nextInt(3).toLong else 0L)
      val (a1, b1, a2, b2) = (rnd.nextInt(7).toLong, 1L + rnd.nextInt(7), rnd.nextInt(7).toLong, 1L + rnd.nextInt(7))
      val twice = new FlowNetwork(n, ends, capB, capA)
      twice.setCapacities(a1, b1)
      twice.maxFlow(0, n - 1)
      twice.setCapacities(a2, b2)
      val once = new FlowNetwork(n, ends, capB, capA)
      once.setCapacities(a2, b2)
      assert(twice.maxFlow(0, n - 1) == once.maxFlow(0, n - 1))
      assert(twice.cap.sameElements(once.cap))
      assert(twice.minCutSourceSide(0).sameElements(once.minCutSourceSide(0)))
      val (c2, k2) = SCC.components(twice)
      val (c1, k1) = SCC.components(once)
      assert(k2 == k1 && c2.sameElements(c1))
    }
  }

  test("SCC matches brute-force mutual reachability") {
    val rnd = new Random(21)
    for (_ <- 0 until 40) {
      val n = 2 + rnd.nextInt(7)
      val adj = Array.tabulate(n)(u =>
        (0 until n).filter(v => v != u && rnd.nextDouble() < 0.3).toArray)
      val (comp, _) = SCC.components(residualOf(adj))
      val reach = Array.fill(n, n)(false)
      for (u <- 0 until n) {
        val seen = Array.fill(n)(false)
        def dfs(x: Int): Unit = { seen(x) = true; adj(x).foreach(y => if (!seen(y)) dfs(y)) }
        dfs(u)
        for (v <- 0 until n) reach(u)(v) = seen(v)
      }
      for (u <- 0 until n; v <- 0 until n)
        assert((comp(u) == comp(v)) == (reach(u)(v) && reach(v)(u)))
    }
  }

  test("SCC component ids are reverse-topological") {
    val rnd = new Random(33)
    for (_ <- 0 until 30) {
      val n = 3 + rnd.nextInt(6)
      val adj = Array.tabulate(n)(u =>
        (0 until n).filter(v => v != u && rnd.nextDouble() < 0.3).toArray)
      val (comp, _) = SCC.components(residualOf(adj))
      for (u <- 0 until n; v <- adj(u); if comp(u) != comp(v))
        assert(comp(u) > comp(v), "arcs must go from higher to lower component id")
    }
  }

  test("descendants closure is transitive and complete") {
    val dag = Array(Array.empty[Int], Array(0), Array(1), Array(1, 0))
    val des = SCC.descendants(dag)
    assert(des(0).isEmpty)
    assert(des(1).get(0) && des(1).cardinality == 1)
    assert(des(2).get(0) && des(2).get(1) && des(2).cardinality == 2)
    assert(des(3).get(0) && des(3).get(1) && des(3).cardinality == 2)
  }
}
