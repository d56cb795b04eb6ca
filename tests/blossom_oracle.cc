#include "blossom_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace vlq {

namespace {

/**
 * State of one maximum-weight-matching run. Vertex ids are 0..n-1;
 * blossom ids n..2n-1. Edge endpoints are indexed 2k and 2k+1 for edge
 * k, so p^1 is the opposite endpoint and p/2 the edge.
 */
class Matcher
{
  public:
    Matcher(int n, const std::vector<MatchEdge>& input, bool maxCardinality)
        : n_(n), maxCard_(maxCardinality)
    {
        edges_.reserve(input.size());
        int64_t maxw = 0;
        for (const auto& e : input) {
            VLQ_ASSERT(e.u != e.v, "self loop in matching graph");
            VLQ_ASSERT(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                       "matching edge endpoint out of range");
            // Scale to even integers for exact dual arithmetic.
            int64_t w = 2 * llround(e.weight * kScale);
            edges_.push_back(Edge{e.u, e.v, w});
            maxw = std::max(maxw, w);
        }
        const int m = static_cast<int>(edges_.size());

        endpoint_.resize(2 * m);
        neighbend_.assign(n_, {});
        for (int k = 0; k < m; ++k) {
            endpoint_[2 * k] = edges_[k].u;
            endpoint_[2 * k + 1] = edges_[k].v;
            neighbend_[edges_[k].u].push_back(2 * k + 1);
            neighbend_[edges_[k].v].push_back(2 * k);
        }

        mate_.assign(n_, -1);
        label_.assign(2 * n_, 0);
        labelend_.assign(2 * n_, -1);
        inblossom_.resize(n_);
        for (int v = 0; v < n_; ++v)
            inblossom_[v] = v;
        blossomparent_.assign(2 * n_, -1);
        blossomchilds_.assign(2 * n_, {});
        blossombase_.resize(2 * n_);
        for (int v = 0; v < n_; ++v)
            blossombase_[v] = v;
        for (int b = n_; b < 2 * n_; ++b)
            blossombase_[b] = -1;
        blossomendps_.assign(2 * n_, {});
        bestedge_.assign(2 * n_, -1);
        blossombestedges_.assign(2 * n_, {});
        hasBestList_.assign(2 * n_, false);
        for (int b = 2 * n_ - 1; b >= n_; --b)
            unusedblossoms_.push_back(b);
        dualvar_.assign(2 * n_, 0);
        for (int v = 0; v < n_; ++v)
            dualvar_[v] = maxw;
        allowedge_.assign(m, false);
    }

    /**
     * Greedy initialization for perfect matching, of the kind Blossom
     * V uses: start from per-vertex duals and a matching of tight edges
     * instead of uniform duals and the empty matching. Every dual stays
     * feasible and even (so S-S slacks stay even) and every matched
     * edge starts tight. Only valid under maxCardinality on a graph
     * with a perfect matching: the stop rule of delta 1 needs the free
     * vertices' duals equal, which this gives up.
     */
    void
    warmStart()
    {
        // Pass 1: a vertex's dual is its heaviest incident edge, so no
        // slack is negative; an edge heaviest at both ends is tight.
        std::fill(dualvar_.begin(), dualvar_.begin() + n_, 0);
        for (const Edge& e : edges_) {
            dualvar_[e.u] = std::max(dualvar_[e.u], e.w);
            dualvar_[e.v] = std::max(dualvar_[e.v], e.w);
        }
        const int m = static_cast<int>(edges_.size());
        for (int k = 0; k < m; ++k) {
            const Edge& e = edges_[k];
            if (mate_[e.u] == -1 && mate_[e.v] == -1 && slack(k) == 0) {
                mate_[e.u] = 2 * k + 1;
                mate_[e.v] = 2 * k;
            }
        }
        // Pass 2: lower each free vertex's dual until an edge goes
        // tight, and match that edge if its other end is free too.
        for (int u = 0; u < n_; ++u) {
            if (mate_[u] != -1 || neighbend_[u].empty())
                continue;
            int64_t lowest = std::numeric_limits<int64_t>::min();
            for (int p : neighbend_[u])
                lowest = std::max(lowest, 2 * edges_[p / 2].w
                                              - dualvar_[endpoint_[p]]);
            dualvar_[u] = lowest;
            for (int p : neighbend_[u]) {
                if (mate_[endpoint_[p]] == -1 && slack(p / 2) == 0) {
                    mate_[u] = p;
                    mate_[endpoint_[p]] = p ^ 1;
                    break;
                }
            }
        }
    }

    std::vector<int>
    run()
    {
        for (int t = 0; t < n_; ++t) {
            if (!stage())
                break;
        }
        std::vector<int> result(n_, -1);
        for (int v = 0; v < n_; ++v)
            if (mate_[v] >= 0)
                result[v] = endpoint_[mate_[v]];
        for (int v = 0; v < n_; ++v)
            VLQ_ASSERT(result[v] == -1 || result[result[v]] == v,
                       "matching is not symmetric");
        return result;
    }

  private:
    static constexpr double kScale = double{1 << 20};

    struct Edge
    {
        int u;
        int v;
        int64_t w;
    };

    int n_;
    bool maxCard_;
    std::vector<Edge> edges_;
    std::vector<int> endpoint_;
    std::vector<std::vector<int>> neighbend_;
    std::vector<int> mate_;
    std::vector<int> label_;
    std::vector<int> labelend_;
    std::vector<int> inblossom_;
    std::vector<int> blossomparent_;
    std::vector<std::vector<int>> blossomchilds_;
    std::vector<int> blossombase_;
    std::vector<std::vector<int>> blossomendps_;
    std::vector<int> bestedge_;
    std::vector<std::vector<int>> blossombestedges_;
    std::vector<bool> hasBestList_;
    std::vector<int> unusedblossoms_;
    std::vector<int64_t> dualvar_;
    std::vector<bool> allowedge_;
    std::vector<int> queue_;

    int64_t
    slack(int k) const
    {
        return dualvar_[edges_[k].u] + dualvar_[edges_[k].v]
             - 2 * edges_[k].w;
    }

    void
    blossomLeaves(int b, std::vector<int>& out) const
    {
        if (b < n_) {
            out.push_back(b);
            return;
        }
        for (int t : blossomchilds_[b])
            blossomLeaves(t, out);
    }

    void
    assignLabel(int w, int t, int p)
    {
        int b = inblossom_[w];
        VLQ_ASSERT(label_[w] == 0 && label_[b] == 0, "relabel attempt");
        label_[w] = label_[b] = t;
        labelend_[w] = labelend_[b] = p;
        bestedge_[w] = bestedge_[b] = -1;
        if (t == 1) {
            std::vector<int> leaves;
            blossomLeaves(b, leaves);
            queue_.insert(queue_.end(), leaves.begin(), leaves.end());
        } else {
            int base = blossombase_[b];
            VLQ_ASSERT(mate_[base] >= 0, "T-blossom base unmatched");
            assignLabel(endpoint_[mate_[base]], 1, mate_[base] ^ 1);
        }
    }

    int
    scanBlossom(int v, int w)
    {
        std::vector<int> path;
        int base = -1;
        while (v != -1 || w != -1) {
            int b = inblossom_[v];
            if (label_[b] & 4) {
                base = blossombase_[b];
                break;
            }
            VLQ_ASSERT(label_[b] == 1, "scanBlossom expects S-blossom");
            path.push_back(b);
            label_[b] |= 4;
            VLQ_ASSERT(labelend_[b] == mate_[blossombase_[b]],
                       "S-blossom labelend mismatch");
            if (labelend_[b] == -1) {
                v = -1; // root of the tree
            } else {
                v = endpoint_[labelend_[b]];
                b = inblossom_[v];
                VLQ_ASSERT(label_[b] == 2, "expected T-blossom");
                VLQ_ASSERT(labelend_[b] >= 0, "T-blossom without edge");
                v = endpoint_[labelend_[b]];
            }
            if (w != -1)
                std::swap(v, w);
        }
        for (int b : path)
            label_[b] &= ~4;
        return base;
    }

    void
    addBlossom(int base, int k)
    {
        int v = edges_[k].u;
        int w = edges_[k].v;
        int bb = inblossom_[base];
        int bv = inblossom_[v];
        int bw = inblossom_[w];

        VLQ_ASSERT(!unusedblossoms_.empty(), "out of blossom ids");
        int b = unusedblossoms_.back();
        unusedblossoms_.pop_back();

        blossombase_[b] = base;
        blossomparent_[b] = -1;
        blossomparent_[bb] = b;

        std::vector<int> path;
        std::vector<int> endps;
        while (bv != bb) {
            blossomparent_[bv] = b;
            path.push_back(bv);
            endps.push_back(labelend_[bv]);
            VLQ_ASSERT(label_[bv] == 2 ||
                           (label_[bv] == 1 &&
                            labelend_[bv] == mate_[blossombase_[bv]]),
                       "addBlossom trace error");
            VLQ_ASSERT(labelend_[bv] >= 0, "blossom trace without edge");
            v = endpoint_[labelend_[bv]];
            bv = inblossom_[v];
        }
        path.push_back(bb);
        std::reverse(path.begin(), path.end());
        std::reverse(endps.begin(), endps.end());
        endps.push_back(2 * k);
        while (bw != bb) {
            blossomparent_[bw] = b;
            path.push_back(bw);
            endps.push_back(labelend_[bw] ^ 1);
            VLQ_ASSERT(label_[bw] == 2 ||
                           (label_[bw] == 1 &&
                            labelend_[bw] == mate_[blossombase_[bw]]),
                       "addBlossom trace error");
            VLQ_ASSERT(labelend_[bw] >= 0, "blossom trace without edge");
            w = endpoint_[labelend_[bw]];
            bw = inblossom_[w];
        }
        blossomchilds_[b] = std::move(path);
        blossomendps_[b] = std::move(endps);

        VLQ_ASSERT(label_[bb] == 1, "blossom base must be S");
        label_[b] = 1;
        labelend_[b] = labelend_[bb];
        dualvar_[b] = 0;

        std::vector<int> leaves;
        blossomLeaves(b, leaves);
        for (int leaf : leaves) {
            if (label_[inblossom_[leaf]] == 2)
                queue_.push_back(leaf);
            inblossom_[leaf] = b;
        }

        // Recompute best edges into neighboring S-blossoms.
        std::vector<int> bestedgeto(2 * n_, -1);
        for (int child : blossomchilds_[b]) {
            std::vector<std::vector<int>> nblists;
            if (!hasBestList_[child]) {
                std::vector<int> childLeaves;
                blossomLeaves(child, childLeaves);
                for (int leaf : childLeaves) {
                    std::vector<int> ks;
                    ks.reserve(neighbend_[leaf].size());
                    for (int p : neighbend_[leaf])
                        ks.push_back(p / 2);
                    nblists.push_back(std::move(ks));
                }
            } else {
                nblists.push_back(blossombestedges_[child]);
            }
            for (const auto& nblist : nblists) {
                for (int kk : nblist) {
                    int i = edges_[kk].u;
                    int j = edges_[kk].v;
                    if (inblossom_[j] == b)
                        std::swap(i, j);
                    int bj = inblossom_[j];
                    if (bj != b && label_[bj] == 1 &&
                        (bestedgeto[bj] == -1 ||
                         slack(kk) < slack(bestedgeto[bj]))) {
                        bestedgeto[bj] = kk;
                    }
                }
            }
            blossombestedges_[child].clear();
            hasBestList_[child] = false;
            bestedge_[child] = -1;
        }
        blossombestedges_[b].clear();
        for (int kk : bestedgeto)
            if (kk != -1)
                blossombestedges_[b].push_back(kk);
        hasBestList_[b] = true;
        bestedge_[b] = -1;
        for (int kk : blossombestedges_[b])
            if (bestedge_[b] == -1 || slack(kk) < slack(bestedge_[b]))
                bestedge_[b] = kk;
    }

    void
    expandBlossom(int b, bool endstage)
    {
        for (int s : blossomchilds_[b]) {
            blossomparent_[s] = -1;
            if (s < n_) {
                inblossom_[s] = s;
            } else if (endstage && dualvar_[s] == 0) {
                expandBlossom(s, endstage);
            } else {
                std::vector<int> leaves;
                blossomLeaves(s, leaves);
                for (int v : leaves)
                    inblossom_[v] = s;
            }
        }
        if (!endstage && label_[b] == 2) {
            // The expanding blossom was reached through labelend_[b];
            // relabel the even-length path of sub-blossoms between the
            // entry child and the base, and clear labels elsewhere.
            VLQ_ASSERT(labelend_[b] >= 0, "expand without entry edge");
            int entrychild = inblossom_[endpoint_[labelend_[b] ^ 1]];
            int j = 0;
            for (size_t i = 0; i < blossomchilds_[b].size(); ++i)
                if (blossomchilds_[b][i] == entrychild)
                    j = static_cast<int>(i);
            int jstep;
            int endptrick;
            const int nchilds = static_cast<int>(blossomchilds_[b].size());
            if (j & 1) {
                j -= nchilds;
                jstep = 1;
                endptrick = 0;
            } else {
                jstep = -1;
                endptrick = 1;
            }
            auto childAt = [&](int idx) {
                return blossomchilds_[b][static_cast<size_t>(
                    ((idx % nchilds) + nchilds) % nchilds)];
            };
            auto endpAt = [&](int idx) {
                return blossomendps_[b][static_cast<size_t>(
                    ((idx % nchilds) + nchilds) % nchilds)];
            };
            int p = labelend_[b];
            while (j != 0) {
                // Relabel the T-sub-blossom.
                label_[endpoint_[p ^ 1]] = 0;
                label_[endpoint_[endpAt(j - endptrick) ^ endptrick ^ 1]]
                    = 0;
                assignLabel(endpoint_[p ^ 1], 2, p);
                allowedge_[endpAt(j - endptrick) / 2] = true;
                j += jstep;
                p = endpAt(j - endptrick) ^ endptrick;
                allowedge_[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping through.
            int bv = childAt(j);
            label_[endpoint_[p ^ 1]] = 2;
            label_[bv] = 2;
            labelend_[endpoint_[p ^ 1]] = p;
            labelend_[bv] = p;
            bestedge_[bv] = -1;
            // Continue along the blossom until we get back to entrychild.
            j += jstep;
            while (childAt(j) != entrychild) {
                bv = childAt(j);
                if (label_[bv] == 1) {
                    j += jstep;
                    continue;
                }
                std::vector<int> leaves;
                blossomLeaves(bv, leaves);
                int labeled = -1;
                for (int v : leaves) {
                    if (label_[v] != 0) {
                        labeled = v;
                        break;
                    }
                }
                if (labeled != -1) {
                    VLQ_ASSERT(label_[labeled] == 2, "expected T label");
                    VLQ_ASSERT(inblossom_[labeled] == bv,
                               "leaf blossom mismatch");
                    label_[labeled] = 0;
                    label_[endpoint_[mate_[blossombase_[bv]]]] = 0;
                    assignLabel(labeled, 2, labelend_[labeled]);
                }
                j += jstep;
            }
        }
        label_[b] = -1;
        labelend_[b] = -1;
        blossomchilds_[b].clear();
        blossomendps_[b].clear();
        blossombase_[b] = -1;
        blossombestedges_[b].clear();
        hasBestList_[b] = false;
        bestedge_[b] = -1;
        unusedblossoms_.push_back(b);
    }

    void
    augmentBlossom(int b, int v)
    {
        // Bubble up through immediate children to find the one with v.
        int t = v;
        while (blossomparent_[t] != b)
            t = blossomparent_[t];
        if (t >= n_)
            augmentBlossom(t, v);
        int i = 0;
        const int nchilds = static_cast<int>(blossomchilds_[b].size());
        for (int idx = 0; idx < nchilds; ++idx)
            if (blossomchilds_[b][static_cast<size_t>(idx)] == t)
                i = idx;
        int j = i;
        int jstep;
        int endptrick;
        if (i & 1) {
            j -= nchilds;
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;
            endptrick = 1;
        }
        auto childAt = [&](int idx) {
            return blossomchilds_[b][static_cast<size_t>(
                ((idx % nchilds) + nchilds) % nchilds)];
        };
        auto endpAt = [&](int idx) {
            return blossomendps_[b][static_cast<size_t>(
                ((idx % nchilds) + nchilds) % nchilds)];
        };
        while (j != 0) {
            j += jstep;
            t = childAt(j);
            int p = endpAt(j - endptrick) ^ endptrick;
            if (t >= n_)
                augmentBlossom(t, endpoint_[p]);
            j += jstep;
            t = childAt(j);
            if (t >= n_)
                augmentBlossom(t, endpoint_[p ^ 1]);
            mate_[endpoint_[p]] = p ^ 1;
            mate_[endpoint_[p ^ 1]] = p;
        }
        // Rotate so that the child containing v becomes the base.
        std::rotate(blossomchilds_[b].begin(),
                    blossomchilds_[b].begin() + i, blossomchilds_[b].end());
        std::rotate(blossomendps_[b].begin(),
                    blossomendps_[b].begin() + i, blossomendps_[b].end());
        blossombase_[b] = blossombase_[blossomchilds_[b][0]];
        VLQ_ASSERT(blossombase_[b] == v, "augmentBlossom base mismatch");
    }

    void
    augmentMatching(int k)
    {
        for (int side = 0; side < 2; ++side) {
            int s = side == 0 ? edges_[k].u : edges_[k].v;
            int p = side == 0 ? 2 * k + 1 : 2 * k;
            for (;;) {
                int bs = inblossom_[s];
                VLQ_ASSERT(label_[bs] == 1, "augment expects S-blossom");
                VLQ_ASSERT(labelend_[bs] == mate_[blossombase_[bs]],
                           "augment labelend mismatch");
                if (bs >= n_)
                    augmentBlossom(bs, s);
                mate_[s] = p;
                if (labelend_[bs] == -1)
                    break; // reached the root of the tree
                int t = endpoint_[labelend_[bs]];
                int bt = inblossom_[t];
                VLQ_ASSERT(label_[bt] == 2, "augment expects T-blossom");
                VLQ_ASSERT(labelend_[bt] >= 0, "T-blossom without edge");
                s = endpoint_[labelend_[bt]];
                int j = endpoint_[labelend_[bt] ^ 1];
                VLQ_ASSERT(blossombase_[bt] == t, "T base mismatch");
                if (bt >= n_)
                    augmentBlossom(bt, j);
                mate_[j] = labelend_[bt];
                p = labelend_[bt] ^ 1;
            }
        }
    }

    /** One stage: grow trees until an augmenting path is found.
     *  @return true if the matching was augmented. */
    bool
    stage()
    {
        for (int b = 0; b < 2 * n_; ++b) {
            label_[b] = 0;
            bestedge_[b] = -1;
        }
        for (int b = n_; b < 2 * n_; ++b) {
            blossombestedges_[b].clear();
            hasBestList_[b] = false;
        }
        std::fill(allowedge_.begin(), allowedge_.end(), false);
        queue_.clear();
        for (int v = 0; v < n_; ++v)
            if (mate_[v] == -1 && label_[inblossom_[v]] == 0)
                assignLabel(v, 1, -1);

        bool augmented = false;
        for (;;) {
            while (!queue_.empty() && !augmented) {
                int v = queue_.back();
                queue_.pop_back();
                VLQ_ASSERT(label_[inblossom_[v]] == 1, "queue not S");
                for (int p : neighbend_[v]) {
                    int k = p / 2;
                    int w = endpoint_[p];
                    if (inblossom_[v] == inblossom_[w])
                        continue;
                    int64_t kslack = 0;
                    if (!allowedge_[k]) {
                        kslack = slack(k);
                        if (kslack <= 0)
                            allowedge_[k] = true;
                    }
                    if (allowedge_[k]) {
                        if (label_[inblossom_[w]] == 0) {
                            assignLabel(w, 2, p ^ 1);
                        } else if (label_[inblossom_[w]] == 1) {
                            int base = scanBlossom(v, w);
                            if (base >= 0) {
                                addBlossom(base, k);
                            } else {
                                augmentMatching(k);
                                augmented = true;
                                break;
                            }
                        } else if (label_[w] == 0) {
                            VLQ_ASSERT(label_[inblossom_[w]] == 2,
                                       "inconsistent label");
                            label_[w] = 2;
                            labelend_[w] = p ^ 1;
                        }
                    } else if (label_[inblossom_[w]] == 1) {
                        int bv = inblossom_[v];
                        if (bestedge_[bv] == -1 ||
                            kslack < slack(bestedge_[bv])) {
                            bestedge_[bv] = k;
                        }
                    } else if (label_[w] == 0) {
                        if (bestedge_[w] == -1 ||
                            kslack < slack(bestedge_[w])) {
                            bestedge_[w] = k;
                        }
                    }
                }
            }
            if (augmented)
                break;

            // Compute the dual adjustment.
            int deltatype = -1;
            int64_t delta = 0;
            int deltaedge = -1;
            int deltablossom = -1;

            if (!maxCard_) {
                deltatype = 1;
                int64_t minDual = dualvar_[0];
                for (int v = 1; v < n_; ++v)
                    minDual = std::min(minDual, dualvar_[v]);
                delta = std::max<int64_t>(0, minDual);
            }
            for (int v = 0; v < n_; ++v) {
                if (label_[inblossom_[v]] == 0 && bestedge_[v] != -1) {
                    int64_t d = slack(bestedge_[v]);
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 2;
                        deltaedge = bestedge_[v];
                    }
                }
            }
            for (int b = 0; b < 2 * n_; ++b) {
                if (blossomparent_[b] == -1 && label_[b] == 1 &&
                    bestedge_[b] != -1) {
                    int64_t kslack = slack(bestedge_[b]);
                    VLQ_ASSERT(kslack % 2 == 0, "odd slack");
                    int64_t d = kslack / 2;
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 3;
                        deltaedge = bestedge_[b];
                    }
                }
            }
            for (int b = n_; b < 2 * n_; ++b) {
                if (blossombase_[b] >= 0 && blossomparent_[b] == -1 &&
                    label_[b] == 2 &&
                    (deltatype == -1 || dualvar_[b] < delta)) {
                    delta = dualvar_[b];
                    deltatype = 4;
                    deltablossom = b;
                }
            }
            if (deltatype == -1) {
                // No further improvement possible (max-cardinality
                // optimum); make the final dual update non-negative.
                deltatype = 1;
                int64_t minDual = dualvar_[0];
                for (int v = 1; v < n_; ++v)
                    minDual = std::min(minDual, dualvar_[v]);
                delta = std::max<int64_t>(0, minDual);
            }

            // Apply the dual adjustment.
            for (int v = 0; v < n_; ++v) {
                int l = label_[inblossom_[v]];
                if (l == 1)
                    dualvar_[v] -= delta;
                else if (l == 2)
                    dualvar_[v] += delta;
            }
            for (int b = n_; b < 2 * n_; ++b) {
                if (blossombase_[b] >= 0 && blossomparent_[b] == -1) {
                    if (label_[b] == 1)
                        dualvar_[b] += delta;
                    else if (label_[b] == 2)
                        dualvar_[b] -= delta;
                }
            }

            if (deltatype == 1) {
                break; // optimum reached
            } else if (deltatype == 2) {
                allowedge_[deltaedge] = true;
                int i = edges_[deltaedge].u;
                if (label_[inblossom_[i]] == 0)
                    i = edges_[deltaedge].v;
                VLQ_ASSERT(label_[inblossom_[i]] == 1, "delta2 not S");
                queue_.push_back(i);
            } else if (deltatype == 3) {
                allowedge_[deltaedge] = true;
                int i = edges_[deltaedge].u;
                VLQ_ASSERT(label_[inblossom_[i]] == 1, "delta3 not S");
                queue_.push_back(i);
            } else {
                expandBlossom(deltablossom, false);
            }
        }

        // Expand all T-blossoms with zero dual at the end of the stage.
        for (int b = n_; b < 2 * n_; ++b) {
            if (blossomparent_[b] == -1 && blossombase_[b] >= 0 &&
                label_[b] == 2 && dualvar_[b] == 0) {
                expandBlossom(b, true);
            }
        }
        return augmented;
    }
};

} // namespace

std::vector<int>
maxWeightMatching(int numVertices, const std::vector<MatchEdge>& edges,
                  bool maxCardinality)
{
    if (numVertices == 0 || edges.empty())
        return std::vector<int>(static_cast<size_t>(numVertices), -1);
    Matcher matcher(numVertices, edges, maxCardinality);
    return matcher.run();
}

std::vector<int>
minWeightPerfectMatching(int numVertices, const std::vector<MatchEdge>& edges)
{
    // Complement weights: maximizing sum of (maxW + 1 - w) over a
    // maximum-cardinality matching minimizes sum(w) over perfect
    // matchings.
    double maxw = 0.0;
    for (const auto& e : edges)
        maxw = std::max(maxw, e.weight);
    std::vector<MatchEdge> flipped = edges;
    for (auto& e : flipped)
        e.weight = maxw + 1.0 - e.weight;
    std::vector<int> mate(static_cast<size_t>(numVertices), -1);
    if (numVertices > 0 && !flipped.empty()) {
        Matcher matcher(numVertices, flipped, true);
        matcher.warmStart();
        mate = matcher.run();
    }
    for (int v = 0; v < numVertices; ++v)
        VLQ_ASSERT(mate[static_cast<size_t>(v)] >= 0,
                   "graph admits no perfect matching");
    return mate;
}

} // namespace vlq
