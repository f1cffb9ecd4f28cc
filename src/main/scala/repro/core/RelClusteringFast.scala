package repro.core

import repro.cluster.GammaAlg
import repro.cluster.Weighted.Pt
import repro.join.LocalJoinIndex
import scala.collection.mutable
import scala.util.Random

/** Algorithm 2 — RelClusteringFast: the randomized sampling-based coreset.
  *
  * Two modes sharing the grid / condition-(3) / heavy-light logic:
  *
  *  - [[run]] (faithful): per-cell SampleRect(M) + CountRect exactly as the
  *    pseudocode: a cell is heavy when the fraction g/M of its samples not
  *    already lying in processed heavy cells B is at least 2*tau; the
  *    representative gets weight (g/M) * n_cell / (1 - eps').
  *
  *  - [[runBatched]]: one shared uniform sample T of q(D) (drawn once via
  *    SampleRect over the whole space) replaces the per-cell samples;
  *    nonempty cells are enumerated data-driven from T, g_cell counts T's
  *    not-yet-assigned points in the cell and the weight is (g/|T|) * n.
  *    Estimates the same quantity |q_u(D) ∩ (cell \ B)| with one relational
  *    sampling pass instead of one per cell (DESIGN.md §2.3).
  */
object RelClusteringFast {

  /** Faithful Algorithm 2. */
  def run(index: LocalJoinIndex, dims: Array[Int], x: Array[Pt],
          alpha: Double, r: Double, k: Int,
          gamma: GammaAlg, conf: CoreConf, rng: Random): ClusterOut = {
    require(index.n > 0, "empty join")
    val grids = SubSpace.grids(gamma.objective, x, alpha, r, index.n, conf.cellsPerSide)
    val m = conf.perCellSamples

    val b = mutable.ArrayBuffer.empty[Box] // heavy cells, in order
    val corePts = mutable.ArrayBuffer.empty[Pt]
    val coreW = mutable.ArrayBuffer.empty[Double]

    def inB(p: Pt): Boolean = b.exists(_.contains(p))

    SubSpace.foreachCell(index, dims, x, grids) { (box, flo, fhi) =>
      val h = index.sampleBox(flo, fhi, m, rng).map(SubSpace.project(_, dims))
      if (h.nonEmpty) {
        val fresh = h.filterNot(inB)
        val g = fresh.length
        if (g.toDouble / m >= conf.heavyFraction) {
          val nCell = index.countBox(flo, fhi)
          corePts += fresh.head
          coreW += (g.toDouble / m) * nCell / (1 - conf.epsPrimeFast)
          b += box
        }
      }
    }

    SubSpace.finish(corePts.toArray, coreW.toArray, k, gamma, rng, rUFactor(conf))
  }

  /** r_u = (1+4eps')/(1-9eps') * v_S(C) (Lemma 3.10 / Alg 2 line 18). */
  private def rUFactor(conf: CoreConf): Double =
    (1 + 4 * conf.epsPrimeFast) / (1 - 9 * conf.epsPrimeFast)

  /** Batched Algorithm 2 over a shared uniform join sample `sample`
    * (full-width tuples) of the join with exact total count `n`.
    *
    * The pseudocode walks X in order: for each x_i it groups the sample
    * points not yet assigned by their cell in x_i's grid, and every cell
    * passing condition (3) becomes one coreset point (its first sample point,
    * weight |cell ∩ T| / |T| * n) whose points are then assigned. Condition
    * (3) depends on the cell alone, so a point is assigned at x_i exactly when
    * its cells around x_1..x_{i-1} fail the condition and its cell around x_i
    * passes it; a passing cell's group is exactly the points whose first
    * passing center is x_i. One pass over T therefore gives each point its
    * first passing (center, cell), deciding condition (3) once per distinct
    * cell, and the cells are emitted by center and then by first point index:
    * the per-center walk's order, so the output is the same bit for bit.
    */
  def runBatched(sample: Array[Array[Double]], n: Double, dims: Array[Int], x: Array[Pt],
                 alpha: Double, r: Double, k: Int,
                 gamma: GammaAlg, conf: CoreConf, rng: Random): ClusterOut = {
    require(sample.nonEmpty, "empty sample")
    val grids = SubSpace.grids(gamma.objective, x, alpha, r, n, conf.cellsPerSide)

    val pts = sample.map(SubSpace.project(_, dims))
    val mTot = pts.length.toDouble

    // cell -> its id if it passes condition (3), else -1; ids are handed out
    // in order of the cells' first points
    val cellId = mutable.HashMap.empty[CellKey, Int]
    val cellCenter = new Array[Int](pts.length)
    val cellFirst = new Array[Int](pts.length)
    val cellCount = new Array[Int](pts.length)
    var cells = 0
    val assigned = new Array[Boolean](pts.length)

    var t = 0
    while (t < pts.length) {
      var i = 0
      while (!assigned(t) && i < x.length) {
        val key = grids(i).cellOf(i, pts(t))
        val id = cellId.getOrElseUpdate(key,
          if (!SubSpace.condition3(x(i), x, grids(i).boxOf(key))) -1
          else { cellCenter(cells) = i; cellFirst(cells) = t; cells += 1; cells - 1 })
        if (id >= 0) { cellCount(id) += 1; assigned(t) = true }
        i += 1
      }
      t += 1
    }

    val corePts = mutable.ArrayBuffer.empty[Pt]
    val coreW = mutable.ArrayBuffer.empty[Double]
    (0 until cells).sortBy(cellCenter(_)).foreach { id => // stable: first index within a center
      corePts += pts(cellFirst(id))
      coreW += cellCount(id) / mTot * n
    }
    // Safety net (Lemma 3.1 guarantees none at full |X| coverage): leftover
    // sample points enter individually with weight n/|T| — only tightens C.
    t = 0
    while (t < pts.length) {
      if (!assigned(t)) { corePts += pts(t); coreW += n / mTot }
      t += 1
    }

    SubSpace.finish(corePts.toArray, coreW.toArray, k, gamma, rng, rUFactor(conf))
  }
}
