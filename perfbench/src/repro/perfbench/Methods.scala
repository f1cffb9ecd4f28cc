package repro.perfbench

import repro.baselines.{FullJoin, RelKMeansPP, RkMeans}
import repro.cluster.KMeansAlg
import repro.cluster.Weighted.Pt
import repro.core.{FastBatched, RelKClustering}
import repro.join.{AcyclicQuery, LocalJoinIndex, Yannakakis}
import scala.util.Random

/** What one method invocation returned: its centers (coordinates in `attrs`
  * order), the size of what it clustered (coreset, grid cells or collected
  * join rows), and the counts its output checks compare against |q(D)|.
  */
final case class Outcome(centers: Array[Pt], attrs: Seq[String], size: Double,
                         nJoin: Option[Double] = None, totalWeight: Option[Double] = None)

/** One Table 1 method as the benchmark times it, for the k-means objective.
  * `ratioBound` is the cost ratio bound the bench suites assert for it; the
  * full join is the reference of every ratio.
  */
final case class Method(key: String, ratioBound: Double, run: () => Outcome)

object Methods {
  def newFast(q: AcyclicQuery, w: Workload): Method = all(q, w).head
  def fullJoin(q: AcyclicQuery, w: Workload): Method = all(q, w).last

  /** NEW-fast first, the full join last. */
  def all(q: AcyclicQuery, w: Workload): Seq[Method] = {
    val conf = w.conf
    Seq(
      Method("new_fast", w.newMeansBound, () => {
        val r = RelKClustering.run(q, w.k, KMeansAlg(), conf, FastBatched)
        Outcome(r.centers, r.attrs, r.maxCoresetSize, nJoin = Some(r.nJoin))
      }),
      Method("rkmeans", 9.5, () => {
        val r = RkMeans.run(q, w.k, KMeansAlg(), conf.seed)
        Outcome(r.centers, q.allAttrs, r.gridSize, totalWeight = Some(r.totalWeight))
      }),
      // the composition Harness.table1 times for [43]
      Method("relkmpp", 6.0, () => {
        val idx = LocalJoinIndex.build(Yannakakis.fullReduce(q))
        val sample = idx.sampleUniform(conf.sampleSize, new Random(conf.seed))
        val r = RelKMeansPP.run(sample, idx.n, w.k, KMeansAlg(), conf.seed)
        Outcome(r.centers, idx.attrs.toSeq, r.coresetSize)
      }),
      Method("full_join", Double.PositiveInfinity, () => {
        val r = FullJoin.run(q, w.k, KMeansAlg(), conf.seed, collectCap = w.fullJoinCap)
        Outcome(r.centers, q.allAttrs, r.clusteredRows, nJoin = Some(r.joinSize.toDouble))
      }),
    )
  }

  /** Output checks of one invocation; returns the failed ones. */
  def check(o: Outcome, k: Int, d: Int, qd: Long): Seq[String] = {
    val errs = Seq.newBuilder[String]
    if (o.centers.isEmpty || o.centers.length > k) errs += s"${o.centers.length} centers, k=$k"
    if (o.attrs.length != d) errs += s"${o.attrs.length} attributes, d=$d"
    if (!o.centers.forall(c => c.length == d && c.forall(v => !v.isNaN && !v.isInfinite)))
      errs += "a center is not a finite point of width d"
    o.nJoin.foreach(n => if (n != qd.toDouble) errs += s"|q(D)|=$n, countJoin=$qd")
    o.totalWeight.foreach(t => if (t != qd.toDouble) errs += s"grid weight $t, |q(D)|=$qd")
    errs.result()
  }
}
