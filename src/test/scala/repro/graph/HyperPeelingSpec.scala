package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Datasets
import repro.testkit.Check
import repro.uncertain.WorldSampler

class HyperPeelingSpec extends AnyFunSuite {

  private def edgeInstances(g: Graph): Array[Array[Int]] =
    Array.tabulate(g.m)(i => Array(g.edgeU(i), g.edgeV(i)))

  /** Every k-core of the linear decomposition equals the brute-force
    * fixpoint, for k up to one past the maximum core number.
    */
  private def assertCores(n: Int, inst: Array[Array[Int]], ctx: String): Unit = {
    val cores = HyperPeeling.decompose(n, inst)
    for (k <- 0 to cores.kMax + 1) {
      val expected = BruteForce.instanceCore(n, inst, k)
      val got = (0 until n).filter(cores.coreNumber(_) >= k).toSet
      assert(got == expected, s"$ctx k=$k")
    }
  }

  test("edge core numbers match brute-force k-core fixpoint") {
    Check.forAllGraphs(40, 3, 9)(g => assertCores(g.n, edgeInstances(g), "edge"))
  }

  test("clique core numbers match brute-force (k,h)-core fixpoint") {
    Check.forAllGraphs(25, 3, 8) { g =>
      for (h <- 3 to 4) assertCores(g.n, Cliques.enumerate(g, h), s"h=$h")
    }
  }

  test("pattern core numbers match brute-force (k,psi)-core fixpoint") {
    Check.forAllGraphs(25, 3, 8) { g =>
      for (psi <- Pattern.all) assertCores(g.n, psi.instances(g), psi.name)
    }
  }

  test("edge peel kMax equals brute-force max-min-degree") {
    Check.forAllGraphs(40, 3, 8) { g =>
      val brute = BruteForce.subsets(g.n).map(s => s.map(v => g.adj(v).count(s.contains)).min).max
      assert(HyperPeeling.decompose(g.n, edgeInstances(g)).kMax == brute)
    }
  }

  test("peel best density is a lower bound on (and at least half of) the optimum") {
    Check.forAllGraphs(30, 3, 9) { g =>
      val pr = HyperPeeling.peel(g.n, edgeInstances(g))
      val (pn, pd) = pr.bestDensity
      val (bn, bd, _) = BruteForce.allEdgeDensest(g)
      assert(pn * bd <= bn * pd, "peel density must not exceed optimum")
      // Charikar's 1/2-approximation guarantee for edge density.
      assert(2 * pn * bd >= bn * pd, "peel density must be >= optimum/2")
    }
  }

  test("bestSuffixNodes achieves bestDensity") {
    Check.forAllGraphs(30, 3, 9) { g =>
      val pr = HyperPeeling.peel(g.n, edgeInstances(g))
      val (pn, pd) = pr.bestDensity
      val s = pr.bestSuffixNodes.toSet
      val e = BruteForce.edgesInside(g, s)
      assert(e.toLong * pd == pn * s.size.toLong)
    }
  }

  test("suffixInstances is the live instance count before each removal") {
    val g = Graph.fromEdges(4, Seq((0, 1), (1, 2), (0, 2), (2, 3)))
    val pr = HyperPeeling.peel(g.n, edgeInstances(g))
    assert(pr.suffixInstances(0) == 4)
    assert(pr.order(0) == 3) // unique min-degree node first
    assert(pr.suffixInstances(1) == 3) // triangle remains
  }

  /** O(n²) reference: each step removes the live node of least current
    * degree, the least id among equals.
    */
  private def referencePeel(n: Int, inst: Array[Array[Int]]): (Seq[Int], Seq[Int], Seq[Long]) = {
    val alive = Array.fill(inst.length)(true)
    val removed = new Array[Boolean](n)
    def deg(v: Int) = inst.indices.count(i => alive(i) && inst(i).contains(v))
    var core = 0
    val coreNumber = new Array[Int](n)
    val steps = for (_ <- 0 until n) yield {
      val v = (0 until n).filterNot(removed).minBy(v => (deg(v), v))
      val live = alive.count(identity).toLong
      core = math.max(core, deg(v))
      coreNumber(v) = core
      removed(v) = true
      for (i <- inst.indices; if inst(i).contains(v)) alive(i) = false
      (v, live)
    }
    (steps.map(_._1), coreNumber.toSeq, steps.map(_._2))
  }

  /** Random graphs whose nodes are spread over a larger id range, so that
    * isolated nodes sit between them.
    */
  private def forAllSpreadGraphs(f: Graph => Unit): Unit = {
    val rnd = new scala.util.Random(41)
    Check.forAllGraphs(40, 3, 10) { g0 =>
      val n = g0.n + 1 + rnd.nextInt(5)
      val id = rnd.shuffle((0 until n).toList).take(g0.n).toArray
      f(Graph.fromEdges(n, (0 until g0.m).map(e => (id(g0.edgeU(e)), id(g0.edgeV(e))))))
    }
  }

  test("peel order is least current degree, then least id (edges and 3-cliques, isolated nodes)") {
    forAllSpreadGraphs { g =>
      for (inst <- Seq(edgeInstances(g), Cliques.enumerate(g, 3))) {
        val pr = HyperPeeling.peel(g.n, inst)
        val (order, coreNumber, suffix) = referencePeel(g.n, inst)
        assert(pr.order.toSeq == order)
        assert((0 until g.n).map(pr.cores.coreNumber) == coreNumber)
        assert(pr.suffixInstances.toSeq == suffix)
      }
    }
  }

  test("heuristicStart: innermost core plus denser suffixes") {
    forAllSpreadGraphs { g =>
      val notions = Seq("edge" -> edgeInstances(g), "3-clique" -> Cliques.enumerate(g, 3)) ++
        Pattern.all.map(psi => psi.name -> psi.instances(g))
      for ((name, inst) <- notions) {
        val pr = HyperPeeling.peel(g.n, inst)
        val (order, coreNumber, _) = referencePeel(g.n, inst)
        val want =
          if (inst.isEmpty) Set.empty[Int]
          else {
            val inner = (0 until g.n).filter(coreNumber(_) == coreNumber.max).toSet
            val (num, den) = (BruteForce.instancesInside(inst, inner).toLong, inner.size.toLong)
            val denser = order.indices.map(k => order.drop(k).toSet)
              .filter(s => BruteForce.instancesInside(inst, s) * den > num * s.size)
            denser.foldLeft(inner)(_ ++ _)
          }
        assert(pr.order.drop(pr.heuristicStart).toSet == want, name)
      }
    }
  }

  test("the t-core's peel is the tail of the whole peel, for every t") {
    forAllSpreadGraphs { g =>
      for (inst <- Seq(edgeInstances(g), Cliques.enumerate(g, 3), Pattern.TwoStar.instances(g))) {
        val cores = HyperPeeling.decompose(g.n, inst)
        val (order, _, suffix) = referencePeel(g.n, inst)
        for (t <- 0 to cores.kMax + 1) {
          val pr = cores.peel(t)
          val size = (0 until g.n).count(cores.coreNumber(_) >= t)
          assert(pr.order.toSeq == order.takeRight(size), s"t=$t")
          assert(pr.suffixInstances.toSeq == suffix.takeRight(size), s"t=$t")
        }
      }
    }
  }

  /** The kernel's peel, of the t-core at t = bestSuffixCore, gives the same
    * ρ̃, (⌈ρ̃⌉, ψ)-core and Dinkelbach start as the whole peel.
    */
  private def assertKernelPeel(n: Int, inst: Array[Array[Int]], ctx: String): Unit = {
    val cores = HyperPeeling.decompose(n, inst)
    val t = cores.bestSuffixCore
    assert(if (inst.isEmpty) t == 0 else 1 <= t && t <= cores.kMax, s"$ctx: t=$t kMax=${cores.kMax}")
    val (kernel, whole) = (cores.peel(t), cores.peel(0))
    val (a, b) = whole.bestDensity
    assert(kernel.bestDensity == ((a, b)), ctx)
    assert(kernel.bestSuffixNodes.sameElements(whole.bestSuffixNodes), ctx)
    val core = (0 until n).filter(cores.coreNumber(_) >= (a + b - 1) / b)
    assert(core.forall(kernel.order.contains), ctx)
    assert(cores.coreInstances((a + b - 1) / b).sameElements(inst.filter(_.forall(core.contains))), ctx)
  }

  test("the kernel's t-core peel gives the whole peel's density, core and start") {
    def graph(n: Int, edges: Seq[(Int, Int)]) = Graph.fromEdges(n, edges)
    val clique = (k: Int, o: Int) => for (u <- 0 until k; v <- u + 1 until k) yield (o + u, o + v)
    val shapes = Seq(
      "star" -> graph(9, (1 until 9).map((0, _))),
      "path" -> graph(12, (0 until 11).map(v => (v, v + 1))),
      "two cliques joined by a path" ->
        graph(16, clique(5, 0) ++ clique(6, 10) ++ Seq((4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10))),
      "star and triangle, apart" -> graph(14, (1 until 9).map((0, _)) ++ Seq((10, 11), (11, 12), (10, 12))))
    for ((name, g) <- shapes; (notion, inst) <- Seq("edge" -> edgeInstances(g), "3-clique" -> Cliques.enumerate(g, 3)))
      assertKernelPeel(g.n, inst, s"$name $notion")
    val standIns = Seq("karate" -> Datasets.karate(), "biomine-like" -> Datasets.biomineLike(),
      "twitter-like" -> Datasets.twitterLike(), "friendster-like" -> Datasets.friendsterLike())
    for ((name, ug) <- standIns; i <- 0 until 64) {
      val g = ug.world(WorldSampler.MonteCarlo.worldForIndex(ug, i.toLong, 64, 311L))
      assertKernelPeel(g.n, edgeInstances(g), s"$name world $i")
    }
  }

  test("empty instance list: all core numbers zero, density zero") {
    val pr = HyperPeeling.peel(5, Array.empty)
    assert(pr.cores.kMax == 0 && pr.bestDensity == ((0L, 1L)))
    assert((0 until 5).forall(pr.cores.coreNumber(_) == 0) && pr.order.toSeq == (0 until 5))
  }
}
