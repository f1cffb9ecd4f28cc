package repro.join

import repro.{Oracle, SparkSpec, TestData}
import scala.util.Random

class LocalJoinIndexSpec extends SparkSpec {
  import spark.implicits._

  private lazy val path = TestData.pathQuery(spark)
  private lazy val index = LocalJoinIndex.build(Yannakakis.fullReduce(path))
  private lazy val truth: Array[Array[Double]] = TestData.materializePts(path)
  private lazy val truthSet: Set[Seq[Double]] = truth.map(_.toSeq).toSet

  private def boxOf(ranges: Map[String, (Double, Double)]): (Array[Double], Array[Double]) = {
    val (lo, hi) = index.fullBox
    ranges.foreach { case (a, (l, h)) => lo(index.attrIdx(a)) = l; hi(index.attrIdx(a)) = h }
    (lo, hi)
  }

  private def bruteCount(lo: Array[Double], hi: Array[Double]): Long =
    truth.count { t =>
      t.indices.forall(i => t(i) >= lo(i) && t(i) <= hi(i))
    }.toLong

  test("n equals the Yannakakis join count") {
    assert(index.n == Yannakakis.countJoin(path).toDouble)
    assert(index.n == truth.length.toDouble)
  }

  test("attrs follow the query's global attribute order") {
    assert(index.attrs.toSeq == path.allAttrs)
  }

  test("countBox on the full box equals n") {
    val (lo, hi) = index.fullBox
    assert(index.countBox(lo, hi) == index.n)
  }

  test("CountRect matches brute force on 25 random boxes") {
    val rng = new Random(1)
    for (_ <- 1 to 25) {
      val attrsPicked = index.attrs.filter(_ => rng.nextBoolean()).toSeq
      val ranges = attrsPicked.map { a =>
        val c = rng.nextDouble() * 100
        val w = rng.nextDouble() * 60
        a -> (c - w, c + w)
      }.toMap
      val (lo, hi) = boxOf(ranges)
      assert(index.countBox(lo, hi) == bruteCount(lo, hi).toDouble,
        s"box $ranges")
    }
  }

  test("CountRect matches DuckDB on a fixed box") {
    val (lo, hi) = boxOf(Map("a1" -> (20.0, 60.0), "b" -> (0.0, 50.0)))
    val cnt = index.countBox(lo, hi).toLong
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      "SELECT COUNT(*) AS cnt " + TestData.pathJoinSql +
        " AND CAST(r1.a1 AS DOUBLE) BETWEEN 20 AND 60" +
        " AND CAST(r1.b AS DOUBLE) BETWEEN 0 AND 50",
      path.relations.map(r => r.name -> r.df): _*)
  }

  test("CountRect of an empty box is 0") {
    val (lo, hi) = boxOf(Map("a1" -> (1e9, 2e9)))
    assert(index.countBox(lo, hi) == 0.0)
  }

  test("SampleRect samples are genuine join tuples inside the box") {
    val rng = new Random(2)
    val (lo, hi) = boxOf(Map("a1" -> (10.0, 80.0), "a2" -> (0.0, 70.0)))
    val s = index.sampleBox(lo, hi, 200, rng)
    assert(s.nonEmpty)
    s.foreach { t =>
      assert(truthSet.contains(t.toSeq), "sample is not a join result")
      t.indices.foreach(i => assert(t(i) >= lo(i) && t(i) <= hi(i)))
    }
  }

  test("SampleRect of an empty box returns no samples") {
    val (lo, hi) = boxOf(Map("a2" -> (-1e9, -1e8)))
    assert(index.sampleBox(lo, hi, 10, new Random(3)).isEmpty)
  }

  test("sampleUniform returns genuine join tuples") {
    val s = index.sampleUniform(500, new Random(4))
    assert(s.length == 500)
    s.foreach(t => assert(truthSet.contains(t.toSeq)))
  }

  test("sampleUniform is (approximately) uniform over the join") {
    // frequency of a half-space event under sampling vs its true mass
    val rng = new Random(5)
    val s = index.sampleUniform(4000, rng)
    val i = index.attrIdx("a1")
    val pTrue = truth.count(_(i) <= 50.0).toDouble / truth.length
    val pHat = s.count(_(i) <= 50.0).toDouble / s.length
    assert(math.abs(pHat - pTrue) < 0.04, s"pHat=$pHat pTrue=$pTrue")
  }

  test("sampleUniform respects join multiplicities (heavy key sampled more)") {
    // group by key b: sampled mass per b-bucket tracks true mass
    val rng = new Random(6)
    val s = index.sampleUniform(4000, rng)
    val i = index.attrIdx("b")
    val pTrue = truth.count(_(i) <= 33.0).toDouble / truth.length
    val pHat = s.count(_(i) <= 33.0).toDouble / s.length
    assert(math.abs(pHat - pTrue) < 0.04, s"pHat=$pHat pTrue=$pTrue")
  }

  test("index on an unreduced query still counts correctly") {
    val raw = LocalJoinIndex.build(path) // no fullReduce
    assert(raw.n == index.n)
    // the index drops dangling tuples and sorts the rest: same index
    assert(raw.bounds._1.sameElements(index.bounds._1) && raw.bounds._2.sameElements(index.bounds._2))
    for (s <- 1 to 3) {
      val a = raw.sampleUniform(500, new Random(s))
      val b = index.sampleUniform(500, new Random(s))
      assert(a.indices.forall(i => java.util.Arrays.equals(a(i), b(i))), s"seed $s")
    }
  }

  test("-0.0 and 0.0 join keys are equal, as in Spark's join") {
    val r = Seq((1.0, -0.0), (2.0, 0.0), (3.0, 1.0)).toDF("a", "b")
    val s = Seq((-0.0, 5.0), (0.0, 6.0), (1.0, 7.0)).toDF("b", "c")
    val q = GYO.joinTree(Seq(Relation("r", r), Relation("s", s))).get
    val idx = LocalJoinIndex.build(q)
    assert(idx.n == 5.0)
    assert(idx.n == Yannakakis.countJoin(q).toDouble)
    assert(idx.n == Yannakakis.materialize(q).count().toDouble)
    assert(idx.histogram("b").toSeq == Seq((0.0, 4.0), (1.0, 1.0)))
  }

  test("a null coordinate is rejected naming its relation and column") {
    val r = Seq((Some(1.0), 0.0), (None, 1.0)).toDF("a", "b")
    val s = Seq((0.0, 5.0)).toDF("b", "c")
    val q = GYO.joinTree(Seq(Relation("r", r), Relation("s", s))).get
    val e = intercept[IllegalArgumentException](LocalJoinIndex.build(q))
    assert(e.getMessage.contains("relation r") && e.getMessage.contains("column a"), e.getMessage)
  }

  /** H_u from the materialized join: per value (-0.0 read as 0.0, as the
    * index reads it), the number of join results holding it.
    */
  private def treeMapHistogram(q: AcyclicQuery, attr: String): Seq[(Double, Double)] = {
    val c = q.allAttrs.indexOf(attr)
    val h = scala.collection.mutable.TreeMap.empty[Double, Double](Ordering.Double.TotalOrdering)
    TestData.materializePts(q).foreach { t =>
      val x = if (t(c) == 0.0) 0.0 else t(c)
      h(x) = h.getOrElse(x, 0.0) + 1
    }
    h.toSeq
  }

  private def bits(h: Seq[(Double, Double)]): Seq[(Long, Long)] =
    h.map { case (v, w) => (java.lang.Double.doubleToLongBits(v), java.lang.Double.doubleToLongBits(w)) }

  test("histograms match a TreeMap grouping of the join on adversarial relations") {
    // a: one value on 40 rows, negatives, ±0; b: ±0 and negative keys, second
    // column of r; c: s's non-leading column; (9, 99) and (-5, 4) join nothing
    val r = (Seq.fill(40)((7.0, 1.0)) ++ Seq((-3.0, -0.0), (-0.0, 0.0), (0.0, -2.5), (2.0, -2.5),
      (-3.0, 1.0), (9.0, 99.0))).toDF("a", "b")
    val s = Seq((1.0, -0.0), (1.0, 7.0), (0.0, -1.0), (-2.5, 0.0), (-2.5, -1.0), (-0.0, -1.0),
      (-5.0, 4.0)).toDF("b", "c")
    val t = Seq((-1.0, 2.0), (0.0, 3.0), (-0.0, -4.0), (7.0, 5.0), (7.0, 5.0)).toDF("c", "e")
    val q = GYO.joinTree(Seq(Relation("r", r), Relation("s", s), Relation("t", t))).get
    val idx = LocalJoinIndex.build(q)
    assert(idx.n == Yannakakis.countJoin(q).toDouble)
    Seq("a", "b", "c", "e").foreach { a =>
      assert(bits(idx.histogram(a).toSeq) == bits(treeMapHistogram(q, a)), s"attribute $a")
    }
  }

  test("countBox and sampleBox on 64 seeded boxes give the map-keyed index's results") {
    val (blo, bhi) = index.bounds
    val rng = new Random(64)
    val digest = java.security.MessageDigest.getInstance("SHA-256")
    val counts = (0 until 64).map { b =>
      val lo = Array.tabulate(index.dim)(i =>
        if (rng.nextBoolean()) Double.NegativeInfinity else blo(i) + rng.nextDouble() * (bhi(i) - blo(i)))
      val hi = Array.tabulate(index.dim)(i =>
        if (lo(i).isInfinite && rng.nextBoolean()) Double.PositiveInfinity
        else math.max(lo(i), blo(i)) + rng.nextDouble() * (bhi(i) - blo(i)))
      index.sampleBox(lo, hi, 20, new Random(b)).foreach(_.foreach(x =>
        digest.update(java.nio.ByteBuffer.allocate(8).putLong(java.lang.Double.doubleToLongBits(x)).array())))
      index.countBox(lo, hi).toLong
    }
    val hex = digest.digest().map("%02x".format(_)).mkString
    // recorded from the HashMap-keyed index this one replaced
    assert(counts == Seq[Long](1590, 345, 0, 2416, 16472, 3531, 2499, 525, 115, 6755, 3338, 4669,
      2588, 3357, 201, 1179, 218, 0, 89, 2240, 8297, 8137, 256, 2939, 567, 13464, 149, 2881, 228,
      4371, 2399, 2143, 7239, 2479, 19658, 0, 4049, 5477, 2459, 2056, 6307, 0, 552, 2454, 1628,
      12469, 787, 4764, 3497, 2438, 2072, 3351, 73, 11339, 1715, 5066, 0, 57400, 0, 15210, 14366,
      5254, 3265, 8344), s"counts $counts")
    assert(hex == "bc35bec6c0e0e5260c295724c639d6c9b97f976487ca5bd6066dc683733eca26", s"sample digest $hex")
  }

  test("a LongType key beyond 2^53 is rejected naming its relation and column") {
    val big = 1L << 53
    val r = Seq((1.0, big), (2.0, big + 1)).toDF("a", "b")
    val s = Seq((big, 5.0)).toDF("b", "c")
    val q = GYO.joinTree(Seq(Relation("r", r), Relation("s", s))).get
    // Spark's join keeps the two keys apart; as doubles they would be one
    assert(Yannakakis.countJoin(q) == 1L)
    val e = intercept[IllegalArgumentException](LocalJoinIndex.build(q))
    assert(e.getMessage.contains("relation r") && e.getMessage.contains("column b"), e.getMessage)
  }

  test("works on the TPC-H FK join") {
    val tpch = TestData.tpchQuery(spark)
    val idx = LocalJoinIndex.build(Yannakakis.fullReduce(tpch))
    assert(idx.n == Yannakakis.countJoin(tpch).toDouble)
    val s = idx.sampleUniform(50, new Random(7))
    assert(s.length == 50)
    assert(s.forall(_.length == idx.dim))
  }
}
