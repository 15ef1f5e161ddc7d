package repro.graph

import scala.collection.mutable

/** Pattern-instance enumeration for the four patterns the paper evaluates
  * (§VI-A, Figure 5). An *embedding* is a concrete occurrence (node set +
  * the pattern's edges in it); an *instance* is its node set. Multiple
  * embeddings may share a node set (e.g. the three 2-stars inside a
  * triangle) — Algorithm 7 groups them. Standard non-induced semantics,
  * counted modulo pattern automorphisms, as in [5].
  *
  *  - 2-star : a centre with two distinct neighbours (a path on 3 nodes)
  *  - 3-star : a centre with three distinct neighbours
  *  - c3-star: a triangle with one pendant edge (tailed triangle / "paw");
  *             the figure is ambiguous in text form — this is the standard
  *             4-node "closed-3 star" used in the densest-pattern literature
  *  - diamond: two triangles sharing an edge (K4 minus an edge)
  */
sealed abstract class Pattern(val name: String, val numNodes: Int) extends Serializable {

  /** All embeddings: (sorted node set, pattern edges of the embedding). */
  def embeddings(g: Graph): Array[(Array[Int], Array[(Int, Int)])]

  /** All instances (embedding node sets, duplicates meaningful). */
  final def instances(g: Graph): Array[Array[Int]] = embeddings(g).map(_._1)
}

object Pattern {

  case object TwoStar extends Pattern("2-star", 3) {
    def embeddings(g: Graph): Array[(Array[Int], Array[(Int, Int)])] = {
      val out = mutable.ArrayBuffer.empty[(Array[Int], Array[(Int, Int)])]
      for (c <- 0 until g.n) {
        val nb = g.adj(c)
        for (i <- nb.indices; j <- i + 1 until nb.length)
          out += ((Array(c, nb(i), nb(j)).sorted, Array((c, nb(i)), (c, nb(j)))))
      }
      out.toArray
    }
  }

  case object ThreeStar extends Pattern("3-star", 4) {
    def embeddings(g: Graph): Array[(Array[Int], Array[(Int, Int)])] = {
      val out = mutable.ArrayBuffer.empty[(Array[Int], Array[(Int, Int)])]
      for (c <- 0 until g.n) {
        val nb = g.adj(c)
        for (i <- nb.indices; j <- i + 1 until nb.length; k <- j + 1 until nb.length)
          out += ((Array(c, nb(i), nb(j), nb(k)).sorted,
            Array((c, nb(i)), (c, nb(j)), (c, nb(k)))))
      }
      out.toArray
    }
  }

  case object C3Star extends Pattern("c3-star", 4) {
    def embeddings(g: Graph): Array[(Array[Int], Array[(Int, Int)])] = {
      val triangles = Cliques.enumerate(g, 3)
      val out = mutable.ArrayBuffer.empty[(Array[Int], Array[(Int, Int)])]
      for (t <- triangles; x <- t; d <- g.adj(x); if !t.contains(d))
        out += ((Array(t(0), t(1), t(2), d).sorted,
          Array((t(0), t(1)), (t(1), t(2)), (t(0), t(2)), (x, d))))
      out.toArray
    }
  }

  case object Diamond extends Pattern("diamond", 4) {
    def embeddings(g: Graph): Array[(Array[Int], Array[(Int, Int)])] = {
      val out = mutable.ArrayBuffer.empty[(Array[Int], Array[(Int, Int)])]
      var e = 0
      while (e < g.m) {
        val u = g.edgeU(e); val v = g.edgeV(e)
        // Common neighbours of the chord (u, v).
        val common = g.adj(u).filter(w => w != v && g.hasEdge(v, w))
        for (i <- common.indices; j <- i + 1 until common.length) {
          val a = common(i); val b = common(j)
          out += ((Array(u, v, a, b).sorted,
            Array((u, v), (u, a), (v, a), (u, b), (v, b))))
        }
        e += 1
      }
      out.toArray
    }
  }

  val all: Seq[Pattern] = Seq(TwoStar, ThreeStar, C3Star, Diamond)

  def byName(s: String): Pattern = all.find(_.name == s).getOrElse(
    throw new IllegalArgumentException(s"unknown pattern: $s"))

  /** Group instances by their node set — the Λ' of Algorithm 7 — returning
    * (distinct node sets, multiplicity of each).
    */
  def groups(instances: Array[Array[Int]]): (Array[Array[Int]], Array[Int]) = {
    val idOf = mutable.LinkedHashMap.empty[Seq[Int], Int]
    val counts = mutable.ArrayBuffer.empty[Int]
    val sets = mutable.ArrayBuffer.empty[Array[Int]]
    for (inst <- instances) {
      val key = inst.toSeq
      idOf.get(key) match {
        case Some(id) => counts(id) += 1
        case None =>
          idOf(key) = sets.length
          sets += inst
          counts += 1
      }
    }
    (sets.toArray, counts.toArray)
  }
}
