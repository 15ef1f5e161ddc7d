package repro.graph

/** Tarjan's strongly connected components (iterative) of a flow network's
  * residual graph, plus descendant closures over a DAG — the machinery
  * Line 7 of Algorithms 2/4 and the enumeration of Algorithm 3 operate on.
  */
object SCC {

  /** Component id per node of the residual graph of `net` (its arcs with
    * positive residual capacity, walked in arc order). Ids are in reverse
    * topological order of the condensation: every arc goes from a higher id
    * to a lower id.
    */
  def components(net: FlowNetwork): (Array[Int], Int) = {
    val n = net.numNodes
    val (start, head, cap) = (net.start, net.head, net.cap)
    val index = Array.fill(n)(-1)
    val low = new Array[Int](n)
    val onStack = new Array[Boolean](n)
    val comp = Array.fill(n)(-1)
    val stack = new Array[Int](n)
    var top = 0
    var nextIndex = 0
    var nComp = 0

    // Explicit DFS stack of (node, next arc).
    val dfsNode = new Array[Int](n)
    val dfsArc = new Array[Int](n)
    var depth = 0

    def visit(v: Int): Unit = {
      index(v) = nextIndex; low(v) = nextIndex; nextIndex += 1
      stack(top) = v; top += 1; onStack(v) = true
      dfsNode(depth) = v; dfsArc(depth) = start(v); depth += 1
    }

    var root = 0
    while (root < n) {
      if (index(root) < 0) {
        visit(root)
        while (depth > 0) {
          val u = dfsNode(depth - 1)
          var p = dfsArc(depth - 1)
          while (p < start(u + 1) && cap(p) <= 0) p += 1
          if (p < start(u + 1)) {
            dfsArc(depth - 1) = p + 1
            val v = head(p)
            if (index(v) < 0) visit(v)
            else if (onStack(v) && index(v) < low(u)) low(u) = index(v)
          } else {
            depth -= 1
            if (depth > 0) {
              val parent = dfsNode(depth - 1)
              if (low(u) < low(parent)) low(parent) = low(u)
            }
            if (low(u) == index(u)) {
              var w = -1
              while (w != u) {
                top -= 1
                w = stack(top)
                onStack(w) = false
                comp(w) = nComp
              }
              nComp += 1
            }
          }
        }
      }
      root += 1
    }
    (comp, nComp)
  }

  /** For each component, the set of components reachable from it (strict
    * descendants, excluding itself), as bitsets over component ids.
    */
  def descendants(dag: Array[Array[Int]]): Array[java.util.BitSet] = {
    val nC = dag.length
    val des = Array.fill(nC)(new java.util.BitSet(nC))
    // Tarjan component ids are reverse-topological: arcs go high -> low id,
    // so process components in increasing id order (children first).
    for (c <- 0 until nC; d <- dag(c)) {
      des(c).set(d)
      des(c).or(des(d))
    }
    des
  }
}
