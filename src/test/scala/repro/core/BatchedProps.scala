package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.cluster.{GammaAlg, KMeansAlg, KMedianAlg}
import repro.cluster.Weighted.Pt
import scala.collection.mutable
import scala.util.Random

/** Batched Algorithm 2 as the pseudocode walks it, kept as the oracle of
  * [[RelClusteringFast.runBatched]]: for each x_i in order, the sample
  * points not yet assigned are grouped by their cell in x_i's grid (cells in
  * order of first point), and every cell passing condition (3) contributes
  * its first point with weight |cell ∩ T| / |T| * n and assigns its points.
  */
object BatchedReference {
  def run(sample: Array[Array[Double]], n: Double, dims: Array[Int], x: Array[Pt],
          alpha: Double, r: Double, k: Int,
          gamma: GammaAlg, conf: CoreConf, rng: Random): ClusterOut = {
    val grids = SubSpace.grids(gamma.objective, x, alpha, r, n, conf.cellsPerSide)
    val pts = sample.map(SubSpace.project(_, dims))
    val mTot = pts.length.toDouble
    val assigned = new Array[Boolean](pts.length)
    val corePts = mutable.ArrayBuffer.empty[Pt]
    val coreW = mutable.ArrayBuffer.empty[Double]
    for (i <- x.indices) {
      val byCell = mutable.LinkedHashMap.empty[CellKey, mutable.ArrayBuffer[Int]]
      for (t <- pts.indices if !assigned(t))
        byCell.getOrElseUpdate(grids(i).cellOf(i, pts(t)), mutable.ArrayBuffer.empty) += t
      byCell.foreach { case (key, idxs) =>
        if (SubSpace.condition3(x(i), x, grids(i).boxOf(key))) {
          corePts += pts(idxs.head)
          coreW += idxs.length / mTot * n
          idxs.foreach(assigned(_) = true)
        }
      }
    }
    for (t <- pts.indices if !assigned(t)) { corePts += pts(t); coreW += n / mTot }
    val rUFactor = (1 + 4 * conf.epsPrimeFast) / (1 - 9 * conf.epsPrimeFast)
    SubSpace.finish(corePts.toArray, coreW.toArray, k, gamma, rng, rUFactor)
  }
}

object BatchedProps extends Properties("RelClusteringFast.runBatched") {

  private final case class Case(width: Int, dims: Array[Int], sample: Array[Array[Double]],
                                x: Array[Pt], alpha: Double, r: Double, cellsPerSide: Int,
                                gamma: GammaAlg, k: Int, n: Double)

  private val cases: Gen[Case] = for {
    width <- Gen.chooseNum(1, 4)
    d <- Gen.chooseNum(1, width)
    nx <- Gen.chooseNum(1, 30)
    m <- Gen.chooseNum(1, 400)
    alpha <- Gen.chooseNum(1.0, 4.0)
    logR <- Gen.chooseNum(-2.0, 7.0)
    cps <- Gen.oneOf(2, 4, 6, 8, 12)
    gamma <- Gen.oneOf(KMeansAlg(): GammaAlg, KMedianAlg(): GammaAlg)
    k <- Gen.chooseNum(1, 4)
    blowUp <- Gen.chooseNum(1, 100)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    // integer coordinates repeat, so cells hold several points
    def coord(): Double = if (rng.nextBoolean()) rng.nextInt(20).toDouble else rng.nextGaussian() * 30
    Case(width, rng.shuffle((0 until width).toList).take(d).toArray,
      Array.fill(m)(Array.fill(width)(coord())), Array.fill(nx)(Array.fill(d)(coord())),
      alpha, math.pow(10, logR), cps, gamma, k, m.toDouble * blowUp)
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToLongBits)

  property("runBatched equals the per-center walk bit for bit") = forAll(cases) { c =>
    val conf = CoreConf(cellsPerSide = c.cellsPerSide)
    val got = RelClusteringFast.runBatched(c.sample, c.n, c.dims, c.x, c.alpha, c.r, c.k,
      c.gamma, conf, new Random(1))
    val want = BatchedReference.run(c.sample, c.n, c.dims, c.x, c.alpha, c.r, c.k,
      c.gamma, conf, new Random(1))
    got.corePts.map(bits).toSeq == want.corePts.map(bits).toSeq &&
      bits(got.coreW) == bits(want.coreW) &&
      got.centers.map(bits).toSeq == want.centers.map(bits).toSeq &&
      bits(Array(got.rU)) == bits(Array(want.rU))
  }
}
