package repro.join

import org.apache.spark.sql.functions.col
import scala.collection.mutable
import scala.util.Random

/** Driver-side implementation of Lemma 2.1 and Algorithm 3's counting:
  * `CountRect` and `SampleRect` over the (never materialized) join result
  * q(D) restricted to an axis-parallel box, |q(D)|, and the exact leaf
  * histograms H_u.
  *
  * The index is built from the query's *input* relations — O(N) rows total,
  * which is exactly the premise of relational algorithms (inputs small, join
  * huge). [[LocalJoinIndex.build]] collects each relation once; every count
  * after that runs at RAM-model speed, the role Yannakakis [55] + Zhao et
  * al. [56] play in the paper's cost model.
  *
  * Counting is one inside/outside pass over the join tree (FAQ/InsideOut,
  * Abo Khamis, Ngo, Rudra, PODS 2016) giving each tuple's participation, the
  * number of join results it is part of. `build` keeps the tuples of nonzero
  * participation (the full reducer), sorted, so an index depends neither on
  * a prior reduction nor on the partitioning of its inputs.
  *
  * Boxes are full-width: `lo(i)..hi(i)` per global attribute i (±∞ for
  * unconstrained attributes), so projections q_u(D) are handled for free —
  * constrain only the attributes in A_u; multiplicities are preserved because
  * counts always count full join results (|pi-bar_B(q(D)) ∩ R| = |q(D) ∩ R|).
  */
final class LocalJoinIndex private (
    val attrs: Array[String],
    nodes: Array[LocalJoinIndex.Node]
) {
  import LocalJoinIndex._

  val dim: Int = attrs.length
  private val attrIndex: Map[String, Int] = attrs.zipWithIndex.toMap
  def attrIdx(a: String): Int = attrIndex(a)

  private val unfiltered: Weights = buildWeights(None)

  /** |q(D)| (exact). */
  def n: Double = unfiltered.root.total

  /** A box unconstrained in every attribute. */
  def fullBox: (Array[Double], Array[Double]) =
    (Array.fill(dim)(Double.NegativeInfinity), Array.fill(dim)(Double.PositiveInfinity))

  /** Per-attribute (min, max) over the stored relation tuples — a bounding
    * box of the data, used to prune grid cells that cannot contain any join
    * result (every join-result coordinate is some input-tuple coordinate).
    */
  val bounds: (Array[Double], Array[Double]) = {
    val lo = Array.fill(dim)(Double.PositiveInfinity)
    val hi = Array.fill(dim)(Double.NegativeInfinity)
    nodes.foreach { node =>
      node.rows.foreach { row =>
        var k = 0
        while (k < node.attrIdx.length) {
          val g = node.attrIdx(k)
          if (row(k) < lo(g)) lo(g) = row(k)
          if (row(k) > hi(g)) hi(g) = row(k)
          k += 1
        }
      }
    }
    (lo, hi)
  }

  /** CountRect(q, D, R): |q(D) ∩ R| (exact). O(total input rows) per call. */
  def countBox(lo: Array[Double], hi: Array[Double]): Double =
    buildWeights(Some((lo, hi))).root.total

  /** SampleRect(q, D, R, z): z uniform (with replacement) samples from
    * q(D) ∩ R, as full-width tuples in `attrs` order. Empty if the box holds
    * no join result.
    */
  def sampleBox(lo: Array[Double], hi: Array[Double], z: Int, rng: Random): Array[Array[Double]] =
    sample(buildWeights(Some((lo, hi))), z, rng)

  /** z uniform samples from all of q(D) (precomputed weights; O(z · m · log N)). */
  def sampleUniform(z: Int, rng: Random): Array[Array[Double]] =
    sample(unfiltered, z, rng)

  /** H_u of Algorithm 3's leaf (lines 2-8): the (value, weight) pairs of
    * pi_attr(q(D)) with w(p) = |{t in q(D) : t.attr = p}|, sorted by value;
    * weights sum to |q(D)|. Groups the participation counts of the first
    * relation holding `attr`.
    */
  def histogram(attr: String): Array[(Double, Double)] = {
    val v = nodes.indexWhere(_.attrIdx.contains(attrIdx(attr)))
    val c = nodes(v).attrIdx.indexOf(attrIdx(attr))
    val h = mutable.TreeMap.empty[Double, Double](Ordering.Double.TotalOrdering)
    nodes(v).rows.indices.foreach { i =>
      val x = nodes(v).rows(i)(c)
      h(x) = h.getOrElse(x, 0.0) + participation(v)(i)
    }
    h.toArray
  }

  /** Per node and tuple: the number of join results the tuple is part of,
    * inside × outside count (a root tuple's outside count is 1). A child
    * tuple's outside count sums, over the parent tuples it joins with, the
    * parent's outside count times the messages of its other children: the
    * parent's participation over the child's message.
    */
  private lazy val participation: Array[Array[Double]] = {
    val inside = unfiltered.inside
    val part = new Array[Array[Double]](nodes.length)
    part(0) = inside(0)
    // parents come before children in `nodes`
    for (v <- nodes.indices; c <- nodes(v).children) {
      val (node, child) = (nodes(v), nodes(c))
      val parentKey = node.localIdxOfGlobals(child.sharedGlobal)
      val outside = mutable.HashMap.empty[Key, Double]
      node.rows.indices.filter(part(v)(_) > 0).foreach { i =>
        val key = keyOf(node.rows(i), parentKey)
        outside(key) = outside.getOrElse(key, 0.0) + part(v)(i) / unfiltered.msgs(c)(key).total
      }
      val childKey = child.localIdxOfGlobals(child.sharedGlobal)
      part(c) = Array.tabulate(child.rows.length)(j =>
        inside(c)(j) * outside.getOrElse(keyOf(child.rows(j), childKey), 0.0))
    }
    part
  }

  // ------------------------------------------------------------------

  /** Per-query dynamic program: for every relation tuple passing the box
    * filter, the number of join results of its subtree it participates in;
    * tuples grouped by the attributes shared with the parent, with cumulative
    * weights for top-down sampling.
    */
  private def buildWeights(box: Option[(Array[Double], Array[Double])]): Weights = {
    val msgs = Array.fill[mutable.HashMap[Key, Group]](nodes.length)(null)
    // children come after parents in `nodes`; process in reverse.
    val cnts = Array.fill[Array[Double]](nodes.length)(null)
    for (v <- nodes.indices.reverse) {
      val node = nodes(v)
      val rows = node.rows
      val cnt = new Array[Double](rows.length)
      var i = 0
      while (i < rows.length) {
        val row = rows(i)
        var c = if (passes(node, row, box)) 1.0 else 0.0
        if (c > 0) {
          var ci = 0
          while (c > 0 && ci < node.children.length) {
            val child = nodes(node.children(ci))
            val key = keyOf(row, node.localIdxOfGlobals(child.sharedGlobal))
            c *= msgs(node.children(ci)).get(key).map(_.total).getOrElse(0.0)
            ci += 1
          }
        }
        cnt(i) = c
        i += 1
      }
      cnts(v) = cnt
      if (v != 0) {
        // group rows by the attrs shared with the parent
        val sharedLocal = node.localIdxOfGlobals(node.sharedGlobal)
        val grouped = mutable.HashMap.empty[Key, mutable.ArrayBuffer[Int]]
        var j = 0
        while (j < rows.length) {
          if (cnt(j) > 0) {
            grouped.getOrElseUpdate(keyOf(rows(j), sharedLocal), mutable.ArrayBuffer.empty[Int]) += j
          }
          j += 1
        }
        msgs(v) = grouped.map { case (k, idxs) => k -> Group.of(idxs.toArray, cnt) }
      }
    }
    Weights(msgs, Group.of(cnts(0).indices.filter(cnts(0)(_) > 0).toArray, cnts(0)), cnts)
  }

  private def passes(node: Node, row: Array[Double],
                     box: Option[(Array[Double], Array[Double])]): Boolean = box match {
    case None => true
    case Some((lo, hi)) =>
      var k = 0
      while (k < node.attrIdx.length) {
        val g = node.attrIdx(k)
        val v = row(k)
        if (v < lo(g) || v > hi(g)) return false
        k += 1
      }
      true
  }

  private def keyOf(row: Array[Double], localIdx: Array[Int]): Key = {
    val a = new Array[Double](localIdx.length)
    var i = 0
    while (i < localIdx.length) { a(i) = row(localIdx(i)); i += 1 }
    new Key(a)
  }

  private def sample(w: Weights, z: Int, rng: Random): Array[Array[Double]] = {
    if (w.root.total <= 0) return Array.empty
    val out = new Array[Array[Double]](z)
    var s = 0
    while (s < z) {
      val tuple = new Array[Double](dim)
      descend(0, draw(w.root, rng), tuple, w, rng)
      out(s) = tuple
      s += 1
    }
    out
  }

  private def draw(g: Group, rng: Random): Int = {
    val u = rng.nextDouble() * g.total
    // smallest i with cum(i) > u
    var lo = 0; var hi = g.cum.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (g.cum(mid) > u) hi = mid else lo = mid + 1
    }
    g.rowIdx(lo)
  }

  private def descend(v: Int, rowI: Int, out: Array[Double], w: Weights, rng: Random): Unit = {
    val node = nodes(v)
    val row = node.rows(rowI)
    var k = 0
    while (k < node.attrIdx.length) { out(node.attrIdx(k)) = row(k); k += 1 }
    var ci = 0
    while (ci < node.children.length) {
      val cIdx = node.children(ci)
      val child = nodes(cIdx)
      val key = keyOf(row, node.localIdxOfGlobals(child.sharedGlobal))
      val g = w.msgs(cIdx)(key)
      descend(cIdx, draw(g, rng), out, w, rng)
      ci += 1
    }
  }
}

object LocalJoinIndex {

  /** Wrapper giving Array[Double] value-based equality/hashing for HashMap keys. */
  final class Key(val a: Array[Double]) {
    override def hashCode(): Int = java.util.Arrays.hashCode(a)
    override def equals(o: Any): Boolean = o match {
      case k: Key => java.util.Arrays.equals(a, k.a)
      case _      => false
    }
  }

  /** Tuples of one relation sharing a parent-key, with cumulative subtree counts. */
  final case class Group(rowIdx: Array[Int], cum: Array[Double], total: Double)

  object Group {
    /** The tuples `rowIdx` with counts `cnt`, cumulated in `rowIdx` order. */
    def of(rowIdx: Array[Int], cnt: Array[Double]): Group = {
      val cum = rowIdx.scanLeft(0.0)((acc, i) => acc + cnt(i)).tail
      Group(rowIdx, cum, cum.lastOption.getOrElse(0.0))
    }
  }

  /** Bottom-up messages, the root's tuples, and every tuple's inside count. */
  final case class Weights(msgs: Array[mutable.HashMap[Key, Group]], root: Group,
                           inside: Array[Array[Double]])

  final case class Node(
      name: String,
      attrIdx: Array[Int],        // global attr index of each local column
      rows: Array[Array[Double]],
      children: Array[Int],       // indices into `nodes`
      sharedGlobal: Array[Int]    // global attr indices shared with the parent
  ) {
    private val globalToLocal: Map[Int, Int] = attrIdx.zipWithIndex.toMap
    def localIdxOfGlobals(gs: Array[Int]): Array[Int] = gs.map(globalToLocal)
  }

  private val lexicographic: Ordering[Array[Double]] = (x, y) => {
    var i = 0
    var c = 0
    while (c == 0 && i < x.length) { c = java.lang.Double.compare(x(i), y(i)); i += 1 }
    c
  }

  /** Collect the query's relations (cast to double) and build the index.
    * Values follow Spark's join-key semantics: -0.0 is read as 0.0. A null
    * value is rejected. Tuples that join with nothing are dropped and the
    * rest are sorted, so an unreduced query and its [[Yannakakis.fullReduce]]
    * build identical indexes, whatever the column order and partitioning of
    * the relations.
    */
  def build(q: AcyclicQuery): LocalJoinIndex = {
    val attrs = q.allAttrs.filterNot(_.startsWith(Yannakakis.CarryPrefix)).toArray
    val attrIndex = attrs.zipWithIndex.toMap
    val tree = q.rooted(q.relations.head.name)

    val buf = mutable.ArrayBuffer.empty[Node]
    def flatten(t: JoinTree, parentAttrs: Set[String]): Int = {
      val myIdx = buf.length
      // columns in global order: a semi-join moves its keys to the front
      val cols = t.rel.attrs.filterNot(_.startsWith(Yannakakis.CarryPrefix)).sortBy(attrIndex)
      val rows = t.rel.df
        .select(cols.map(c => col(c).cast("double")): _*)
        .collect()
        .map(r => Array.tabulate(cols.length) { i =>
          require(!r.isNullAt(i), s"relation ${t.rel.name}: column ${cols(i)} holds a null")
          val x = r.getDouble(i)
          if (x == 0.0) 0.0 else x
        })
        .sorted(lexicographic)
      buf += Node(
        t.rel.name,
        cols.map(attrIndex).toArray,
        rows,
        Array.empty,
        cols.filter(parentAttrs.contains).map(attrIndex).toArray
      )
      val kids = t.children.map(c => flatten(c, cols.toSet)).toArray
      buf(myIdx) = buf(myIdx).copy(children = kids)
      myIdx
    }
    flatten(tree, Set.empty)
    val all = new LocalJoinIndex(attrs, buf.toArray)
    new LocalJoinIndex(attrs, buf.toArray.zip(all.participation).map { case (node, p) =>
      node.copy(rows = node.rows.indices.filter(p(_) > 0).map(node.rows).toArray)
    })
  }
}
