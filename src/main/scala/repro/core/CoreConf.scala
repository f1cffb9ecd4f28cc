package repro.core

import repro.cluster.{GammaAlg, Objective, Weighted}
import repro.cluster.Weighted.Pt
import repro.join.LocalJoinIndex
import scala.util.Random

/** Tunables of the relational clustering algorithms. The paper's proof
  * constants (eps' = eps/34, cellsPerSide = 10*alpha*d_u/eps', per-cell
  * M = Theta(|X| eps^-d-3 log^2 N)) are infeasibly conservative; these are
  * the practical equivalents (DESIGN.md §2.2-2.3). Structure — exponential
  * grids, condition (3), heavy/light sampling, the attribute tree — is
  * unchanged.
  */
final case class CoreConf(
    epsilon: Double = 0.5,
    /** Cells per side of each ring box Q_j (even; %4==0 for exact ring holes). */
    cellsPerSide: Int = 8,
    /** Global uniform join-sample size for the batched fast algorithm. */
    sampleSize: Int = 20000,
    /** Per-cell sample size M for the faithful fast algorithm. */
    perCellSamples: Int = 48,
    /** Heavy-cell threshold: a cell is heavy if g/M >= this (the paper's 2*tau). */
    heavyFraction: Double = 0.05,
    seed: Long = 42L
) {
  /** eps' of Algorithm 1 (paper: eps/4). */
  def epsPrime: Double = epsilon / 4
  /** eps' of Algorithm 2 (paper: eps/34). */
  def epsPrimeFast: Double = epsilon / 34
}

/** Output of one RelClustering call: k centers in the subspace, the cost
  * certificate r_u, and the weighted coreset that produced them (exposed so
  * tests can verify the eps-coreset property of Lemmas 3.2 / 3.9 directly).
  */
final case class ClusterOut(centers: Array[Pt], rU: Double,
                            corePts: Array[Pt], coreW: Array[Double]) {
  def coresetSize: Int = corePts.length
}

private[core] object SubSpace {
  /** Project a full-width tuple onto subspace dims (global attr indices). */
  def project(t: Array[Double], dims: Array[Int]): Pt = {
    val out = new Array[Double](dims.length)
    var i = 0
    while (i < dims.length) { out(i) = t(dims(i)); i += 1 }
    out
  }

  /** The data's bounding box on the subspace dims, half-open above like the
    * grid cells. A cell outside it holds no join result (every join
    * coordinate is an input coordinate), so it can be skipped exactly.
    */
  def dataBox(index: LocalJoinIndex, dims: Array[Int]): Box =
    Box(project(index.bounds._1, dims), project(index.bounds._2, dims).map(v => math.nextUp(v)))

  /** Lift a subspace box to a full-width (lo, hi) pair for LocalJoinIndex,
    * half-open on the upper side (cells are [lo, hi) but countBox is closed).
    */
  def lift(b: Box, dims: Array[Int], fullDim: Int): (Array[Double], Array[Double]) = {
    val lo = Array.fill(fullDim)(Double.NegativeInfinity)
    val hi = Array.fill(fullDim)(Double.PositiveInfinity)
    var i = 0
    while (i < dims.length) {
      lo(dims(i)) = b.lo(i)
      hi(dims(i)) = math.nextDown(b.hi(i))
      i += 1
    }
    (lo, hi)
  }

  /** phi for the objective: r/(alpha n) for k-median, sqrt(r/(alpha n)) for
    * k-means (Appendix A.2); floored to stay positive when r = 0.
    */
  def phiFor(obj: Objective, r: Double, alpha: Double, n: Double): Double = {
    val raw = obj match {
      case repro.cluster.Median => r / (alpha * n)
      case repro.cluster.Means  => math.sqrt(math.max(r, 0.0) / (alpha * n))
    }
    math.max(raw, 1e-9)
  }

  /** Max tuple-to-center distance in phi units (ring count driver). */
  def ringRatio(obj: Objective, alpha: Double, n: Double): Double = obj match {
    case repro.cluster.Median => alpha * n
    case repro.cluster.Means  => math.sqrt(alpha * n)
  }

  /** Condition (3): phi(x_i, cell) <= phi(X, cell) + diam(cell). */
  def condition3(x: Pt, xs: Array[Pt], box: Box): Boolean =
    Geometry.pointBoxDist(x, box) <= Geometry.setBoxDist(xs, box) + box.diam

  /** The exponential grid of Section 3.1 around every x in X, with phi and
    * the ring count set by the objective, r, alpha and n = |q(D)|.
    */
  def grids(obj: Objective, x: Array[Pt], alpha: Double, r: Double, n: Double,
            cellsPerSide: Int): Array[ExpGrid] = {
    val phi = phiFor(obj, r, alpha, n)
    val jMax = ExpGrid.jMaxFor(ringRatio(obj, alpha, n))
    x.map(c => new ExpGrid(c, phi, cellsPerSide, jMax))
  }

  /** The cell walk of Algorithms 1 and 2: for each x_i in order, ring by
    * ring, every cell of x_i's grid that meets the data box and passes
    * condition (3) is handed to `f` with its full-width CountRect/SampleRect
    * query box. Cells outside the data box hold no join result and are
    * skipped exactly.
    */
  def foreachCell(index: LocalJoinIndex, dims: Array[Int], x: Array[Pt],
                  grids: Array[ExpGrid])
                 (f: (Box, Array[Double], Array[Double]) => Unit): Unit = {
    val data = dataBox(index, dims)
    for (i <- x.indices; j <- 0 to grids(i).jMax; key <- grids(i).cellsOfRing(i, j)) {
      val box = grids(i).boxOf(key)
      if (box.intersects(data) && condition3(x(i), x, box)) {
        val (flo, fhi) = lift(box, dims, index.dim)
        f(box, flo, fhi)
      }
    }
  }

  /** Cluster a weighted coreset with gamma; r_u is its cost times `rUFactor`. */
  def finish(pts: Array[Pt], w: Array[Double], k: Int,
             gamma: GammaAlg, rng: Random, rUFactor: Double): ClusterOut = {
    val s = gamma.cluster(pts, w, k, rng)
    val rU = Weighted.cost(pts, w, s, gamma.objective) * rUFactor
    ClusterOut(s, rU, pts, w)
  }
}
