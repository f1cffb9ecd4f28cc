package repro.join

import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.LongType
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
  * a prior reduction nor on the partitioning of its inputs. Joins are
  * resolved once, at construction: each tuple's value of the attributes
  * shared with its parent gets a dense group id, and each parent tuple the
  * id of the child group it joins, so every count, sample and histogram
  * after that runs over primitive arrays without hashing a key.
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

  /** Dense join-key ids, assigned once so that counting and sampling index
    * arrays instead of hashing keys. `groupOf(v)(i)` is the id of node v's
    * row i among v's distinct values of the attributes shared with its
    * parent, numbered in row order (the root's rows form the one group 0);
    * `groupCount(v)` is the number of ids. `link(c)(i)` is the group of child
    * c that row i of c's parent joins, or -1 if none.
    */
  private val groupOf = new Array[Array[Int]](nodes.length)
  private val groupCount = new Array[Int](nodes.length)
  private val link = new Array[Array[Int]](nodes.length)
  groupOf(0) = new Array[Int](nodes(0).rows.length)
  groupCount(0) = 1
  for (v <- nodes.indices; c <- nodes(v).children) {
    val child = nodes(c)
    val ids = mutable.HashMap.empty[Key, Int]
    val childKey = child.localIdxOfGlobals(child.sharedGlobal)
    groupOf(c) = child.rows.map(row => ids.getOrElseUpdate(keyOf(row, childKey), ids.size))
    groupCount(c) = ids.size
    val parentKey = nodes(v).localIdxOfGlobals(child.sharedGlobal)
    link(c) = nodes(v).rows.map(row => ids.getOrElse(keyOf(row, parentKey), -1))
  }

  /** Node v's rows grouped by id, in row order within a group: group g is
    * `members(v)(start(v)(g) until start(v)(g + 1))`.
    */
  private val start = new Array[Array[Int]](nodes.length)
  private val members = new Array[Array[Int]](nodes.length)
  for (v <- nodes.indices) {
    val st = new Array[Int](groupCount(v) + 1)
    groupOf(v).foreach(g => st(g + 1) += 1)
    (1 to groupCount(v)).foreach(g => st(g) += st(g - 1))
    val next = st.clone()
    members(v) = new Array[Int](groupOf(v).length)
    groupOf(v).indices.foreach { i => members(v)(next(groupOf(v)(i))) = i; next(groupOf(v)(i)) += 1 }
    start(v) = st
  }

  private val unfiltered: Weights = buildWeights(None)

  /** |q(D)| (exact). */
  def n: Double = unfiltered.total(0)(0)

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
    buildWeights(Some((lo, hi))).total(0)(0)

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
    * relation holding `attr`: a primitive sort of its values gives the
    * distinct values (ordered as `Double.compare`), and each value's weight
    * is summed in row order.
    */
  def histogram(attr: String): Array[(Double, Double)] = {
    val v = nodes.indexWhere(_.attrIdx.contains(attrIdx(attr)))
    val c = nodes(v).attrIdx.indexOf(attrIdx(attr))
    val values = nodes(v).rows.map(_(c))
    val distinct = values.clone()
    java.util.Arrays.sort(distinct)
    var m = 0
    distinct.foreach { x =>
      if (m == 0 || java.lang.Double.compare(distinct(m - 1), x) != 0) { distinct(m) = x; m += 1 }
    }
    val w = new Array[Double](m)
    values.indices.foreach { i =>
      w(java.util.Arrays.binarySearch(distinct, 0, m, values(i))) += participation(v)(i)
    }
    Array.tabulate(m)(b => (distinct(b), w(b)))
  }

  /** Per node and tuple: the number of join results the tuple is part of,
    * inside × outside count (a root tuple's outside count is 1). A child
    * tuple's outside count sums, over the parent tuples it joins with, the
    * parent's outside count times the messages of its other children: the
    * parent's participation over the child's message.
    */
  private lazy val participation: Array[Array[Double]] = {
    val part = new Array[Array[Double]](nodes.length)
    part(0) = unfiltered.inside(0)
    // parents come before children in `nodes`
    for (v <- nodes.indices; c <- nodes(v).children) {
      val outside = new Array[Double](groupCount(c))
      val joins = link(c)
      var i = 0
      while (i < joins.length) {
        if (part(v)(i) > 0) outside(joins(i)) += part(v)(i) / unfiltered.total(c)(joins(i))
        i += 1
      }
      part(c) = Array.tabulate(nodes(c).rows.length)(j =>
        unfiltered.inside(c)(j) * outside(groupOf(c)(j)))
    }
    part
  }

  // ------------------------------------------------------------------

  /** Per-query dynamic program: for every relation tuple passing the box
    * filter, the number of join results of its subtree it participates in
    * (its inside count), and per parent-key group the sum of those counts,
    * accumulated in row order; each tuple also records its group's running
    * sum, for top-down sampling.
    */
  private def buildWeights(box: Option[(Array[Double], Array[Double])]): Weights = {
    val inside = new Array[Array[Double]](nodes.length)
    val total = new Array[Array[Double]](nodes.length)
    val cum = new Array[Array[Double]](nodes.length)
    // children come after parents in `nodes`; process in reverse.
    var v = nodes.length - 1
    while (v >= 0) {
      val node = nodes(v)
      val rows = node.rows
      val cnt = new Array[Double](rows.length)
      val tot = new Array[Double](groupCount(v))
      val run = new Array[Double](rows.length)
      var i = 0
      while (i < rows.length) {
        var c = if (passes(node, rows(i), box)) 1.0 else 0.0
        var ci = 0
        while (c > 0 && ci < node.children.length) {
          val child = node.children(ci)
          val g = link(child)(i)
          c *= (if (g < 0) 0.0 else total(child)(g))
          ci += 1
        }
        cnt(i) = c
        val g = groupOf(v)(i)
        tot(g) += c
        run(i) = tot(g)
        i += 1
      }
      inside(v) = cnt
      total(v) = tot
      cum(v) = run
      v -= 1
    }
    Weights(inside, total, cum)
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

  private def sample(w: Weights, z: Int, rng: Random): Array[Array[Double]] = {
    if (w.total(0)(0) <= 0) return Array.empty
    val out = new Array[Array[Double]](z)
    var s = 0
    while (s < z) {
      val tuple = new Array[Double](dim)
      descend(0, draw(w, 0, 0, rng), tuple, w, rng)
      out(s) = tuple
      s += 1
    }
    out
  }

  /** A row of group `g` of node `v`, drawn with probability proportional to
    * its inside count: the first member whose running sum exceeds a uniform
    * draw below the group's total (rows of count 0 never do).
    */
  private def draw(w: Weights, v: Int, g: Int, rng: Random): Int = {
    val u = rng.nextDouble() * w.total(v)(g)
    var lo = start(v)(g)
    var hi = start(v)(g + 1) - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (w.cum(v)(members(v)(mid)) > u) hi = mid else lo = mid + 1
    }
    members(v)(lo)
  }

  private def descend(v: Int, rowI: Int, out: Array[Double], w: Weights, rng: Random): Unit = {
    val node = nodes(v)
    val row = node.rows(rowI)
    var k = 0
    while (k < node.attrIdx.length) { out(node.attrIdx(k)) = row(k); k += 1 }
    var ci = 0
    while (ci < node.children.length) {
      val c = node.children(ci)
      descend(c, draw(w, c, link(c)(rowI), rng), out, w, rng)
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

  private def keyOf(row: Array[Double], localIdx: Array[Int]): Key = {
    val a = new Array[Double](localIdx.length)
    var i = 0
    while (i < localIdx.length) { a(i) = row(localIdx(i)); i += 1 }
    new Key(a)
  }

  /** Per node: every tuple's inside count, each group's total, and every
    * tuple's running sum of its group's counts up to and including it.
    */
  final case class Weights(inside: Array[Array[Double]], total: Array[Array[Double]],
                           cum: Array[Array[Double]])

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

  /** Largest magnitude up to which a double holds every integer exactly. */
  private val MaxExactLong = 1L << 53

  /** Collect the query's relations (cast to double) and build the index.
    * Values follow Spark's join-key semantics: -0.0 is read as 0.0. A null
    * value, or a `LongType` value beyond ±2^53 (where distinct keys would
    * meet in one double), is rejected. Tuples that join with nothing are
    * dropped and the rest are sorted, so an unreduced query and its
    * [[Yannakakis.fullReduce]] build identical indexes, whatever the column
    * order and partitioning of the relations.
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
      val isLong = cols.map(c => t.rel.df.schema(c).dataType == LongType).toArray
      val rows = t.rel.df
        .select(cols.indices.map(i => if (isLong(i)) col(cols(i)) else col(cols(i)).cast("double")): _*)
        .collect()
        .map(r => Array.tabulate(cols.length) { i =>
          require(!r.isNullAt(i), s"relation ${t.rel.name}: column ${cols(i)} holds a null")
          val x = if (!isLong(i)) r.getDouble(i) else {
            val l = r.getLong(i)
            require(l <= MaxExactLong && l >= -MaxExactLong,
              s"relation ${t.rel.name}: column ${cols(i)} holds $l, beyond ±2^53 where doubles stop telling integers apart")
            l.toDouble
          }
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
    val part = all.participation
    if (part.forall(_.forall(_ > 0))) all
    else new LocalJoinIndex(attrs, buf.toArray.zip(part).map { case (node, p) =>
      node.copy(rows = node.rows.indices.filter(p(_) > 0).map(node.rows).toArray)
    })
  }
}
