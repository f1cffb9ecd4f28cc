package repro.core

import repro.{SparkSpec, TestData}
import repro.baselines.FullJoin
import repro.bench.Table1Workload
import repro.cluster._
import repro.join.Yannakakis
import scala.util.Random

/** End-to-end Algorithm 3 (Rel-K-Median / Rel-K-Means): solution quality vs
  * the two-step full-join baseline, certificates, discreteness, projections,
  * cyclic queries.
  */
class RelKClusteringSpec extends SparkSpec {

  private lazy val q = TestData.pathQuery(spark)
  private lazy val truth = TestData.materializePts(q)
  private lazy val truthSet = truth.map(_.toSeq).toSet
  private val k = 3
  private val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 4000,
    perCellSamples = 32, heavyFraction = 0.02, seed = 5)

  private def trueCost(centers: Array[Array[Double]], obj: Objective,
                       dims: Option[Seq[Int]] = None): Double = {
    val pts = dims.map(ds => truth.map(t => ds.map(t(_)).toArray)).getOrElse(truth)
    Weighted.costUnweighted(pts, centers, obj)
  }

  private lazy val baselineMedian =
    FullJoin.run(q, k, KMedianAlg(), seed = 1)
  private lazy val baselineMeans =
    FullJoin.run(q, k, KMeansAlg(), seed = 1)

  test("Rel-K-Median (batched) is competitive with the full-join baseline") {
    val res = RelKClustering.run(q, k, KMedianAlg(), conf, FastBatched)
    assert(res.centers.length == k)
    val mine = trueCost(res.centers, Median)
    val base = trueCost(baselineMedian.centers, Median)
    assert(mine <= 1.35 * base, s"relational=$mine full-join=$base")
  }

  test("Rel-K-Means (batched) is competitive with the full-join baseline") {
    val res = RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched)
    val mine = trueCost(res.centers, Means)
    val base = trueCost(baselineMeans.centers, Means)
    assert(mine <= 1.6 * base, s"relational=$mine full-join=$base")
  }

  test("r_u is a valid cost certificate (median, batched)") {
    val res = RelKClustering.run(q, k, KMedianAlg(), conf, FastBatched)
    val mine = trueCost(res.centers, Median)
    assert(mine <= res.rU * 1.2, s"cost=$mine rU=${res.rU}")
    assert(res.rU <= 3.0 * mine, s"rU=${res.rU} cost=$mine")
  }

  test("nJoin equals the exact join count") {
    val res = RelKClustering.run(q, k, KMedianAlg(), conf, FastBatched)
    assert(res.nJoin == Yannakakis.countJoin(q).toDouble)
    assert(res.nJoin == truth.length.toDouble)
  }

  test("discrete Rel-K-Median returns centers that are join tuples") {
    val res = RelKClustering.run(q, k, KMedianAlg(discrete = true), conf,
      FastBatched, discrete = true)
    res.centers.foreach(c => assert(truthSet.contains(c.toSeq),
      s"center ${c.toSeq} is not a join result"))
    val mine = trueCost(res.centers, Median)
    val base = trueCost(baselineMedian.centers, Median)
    assert(mine <= 2.6 * base, s"discrete=$mine geometric-baseline=$base")
  }

  test("discrete Rel-K-Means returns centers that are join tuples") {
    val res = RelKClustering.run(q, k, KMeansAlg(discrete = true), conf,
      FastBatched, discrete = true)
    res.centers.foreach(c => assert(truthSet.contains(c.toSeq)))
    val mine = trueCost(res.centers, Means)
    val base = trueCost(baselineMeans.centers, Means)
    assert(mine <= 4.6 * base, s"discrete=$mine geometric-baseline=$base")
  }

  test("faithful fast engine matches batched quality on a 2-attr projection") {
    val dims = Seq("a1", "a2").map(a => q.allAttrs.indexOf(a))
    val res = RelKClustering.run(q, k, KMedianAlg(), conf, FastFaithful,
      attrsOverride = Some(Seq("a1", "a2")))
    val mine = trueCost(res.centers, Median, Some(dims))
    val pts2 = truth.map(t => dims.map(t(_)).toArray)
    val base = Weighted.costUnweighted(pts2,
      KMedianAlg().cluster(pts2, Array.fill(pts2.length)(1.0), k, new Random(2)), Median)
    assert(mine <= 1.4 * base, s"faithful=$mine base=$base")
  }

  test("slow deterministic engine works end-to-end on a 2-attr projection") {
    val dims = Seq("a1", "a2").map(a => q.allAttrs.indexOf(a))
    val res = RelKClustering.run(q, k, KMedianAlg(), conf, SlowDeterministic,
      attrsOverride = Some(Seq("a1", "a2")))
    val mine = trueCost(res.centers, Median, Some(dims))
    val pts2 = truth.map(t => dims.map(t(_)).toArray)
    val base = Weighted.costUnweighted(pts2,
      KMedianAlg().cluster(pts2, Array.fill(pts2.length)(1.0), k, new Random(3)), Median)
    assert(mine <= 1.4 * base, s"slow=$mine base=$base")
  }

  test("single-attribute clustering reduces to the exact weighted 1-D problem") {
    val res = RelKClustering.run(q, k, KMedianAlg(), conf, FastBatched,
      attrsOverride = Some(Seq("a1")))
    val i = q.allAttrs.indexOf("a1")
    val pts1 = truth.map(t => Array(t(i)))
    val mine = Weighted.costUnweighted(pts1, res.centers, Median)
    assert(math.abs(mine - res.rU) <= 0.02 * math.max(mine, res.rU),
      "leaf r_u must be the exact cost")
  }

  test("k = 1 (means) lands near the grand centroid") {
    val res = RelKClustering.run(q, 1, KMeansAlg(), conf, FastBatched)
    val centroid = q.allAttrs.indices.map(i => truth.map(_(i)).sum / truth.length).toArray
    val spread = math.sqrt(Weighted.costUnweighted(truth, Array(centroid), Means) / truth.length)
    assert(Weighted.dist(res.centers(0), centroid) <= 0.35 * spread,
      s"center=${res.centers(0).toSeq} centroid=${centroid.toSeq}")
  }

  test("works on the TPC-H FK join (smoke, means)") {
    val tpch = TestData.tpchQuery(spark)
    val res = RelKClustering.run(tpch, 2, KMeansAlg(), conf.copy(sampleSize = 2000), FastBatched)
    assert(res.centers.length == 2)
    assert(res.rU > 0 && java.lang.Double.isFinite(res.rU))
    assert(res.centers.forall(_.length == tpch.allAttrs.size))
  }

  test("works on the cyclic triangle query via GHD") {
    val tri = Table1Workload.triangle(spark, 400, 20)
    val res = RelKClustering.run(tri, 2, KMedianAlg(), conf.copy(sampleSize = 2000), FastBatched)
    assert(res.centers.length == 2)
    val triTruth = TestData.materializePts(tri)
    val mine = Weighted.costUnweighted(triTruth, res.centers, Median)
    val base = Weighted.costUnweighted(triTruth,
      KMedianAlg().cluster(triTruth, Array.fill(triTruth.length)(1.0), 2, new Random(4)), Median)
    assert(mine <= 1.5 * base, s"triangle: relational=$mine base=$base")
  }

  test("deterministic for a fixed seed (batched)") {
    val a = RelKClustering.run(q, k, KMedianAlg(), conf, FastBatched)
    val b = RelKClustering.run(q, k, KMedianAlg(), conf, FastBatched)
    assert(a.centers.map(_.toSeq).toSeq == b.centers.map(_.toSeq).toSeq)
    assert(a.rU == b.rU)
  }

  test("centers do not depend on the partitioning of the inputs") {
    val repartitioned = q.withDfs(q.relations.map(r => r.name -> r.df.repartition(7)).toMap)
    val a = RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched)
    val b = RelKClustering.run(repartitioned, k, KMeansAlg(), conf, FastBatched)
    assert(a.centers.length == b.centers.length)
    assert(a.centers.indices.forall(i => java.util.Arrays.equals(a.centers(i), b.centers(i))),
      s"${a.centers.map(_.toSeq).toSeq} vs ${b.centers.map(_.toSeq).toSeq}")
    assert(a.rU == b.rU)
  }

  test("empty join is rejected with a clear error") {
    val empty = q.withDfs(Map("r2" ->
      q.relation("r2").df.where(org.apache.spark.sql.functions.lit(false))))
    intercept[IllegalArgumentException] {
      RelKClustering.run(empty, k, KMedianAlg(), conf, FastBatched)
    }
  }
}
