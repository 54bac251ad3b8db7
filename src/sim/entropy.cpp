#include "sim/entropy.hpp"

#include <cmath>
#include <complex>
#include <vector>

#include "common/logging.hpp"
#include "sim/linalg.hpp"

namespace hammer::sim {

using common::require;

double
entanglementEntropy(const StateVector &state, int subsystem_qubits)
{
    const int n = state.numQubits();
    require(subsystem_qubits >= 1 && subsystem_qubits < n,
            "entanglementEntropy: subsystem size out of range");

    const int k = subsystem_qubits;
    const std::size_t dim_a = std::size_t{1} << k;
    const std::size_t dim_b = std::size_t{1} << (n - k);

    // rho_A[a][a'] = sum_b psi(b,a) conj(psi(b,a')), where the basis
    // index is b << k | a (subsystem A = low qubits).
    std::vector<std::complex<double>> rho(dim_a * dim_a,
                                          std::complex<double>(0.0));
    for (std::size_t b = 0; b < dim_b; ++b) {
        for (std::size_t a = 0; a < dim_a; ++a) {
            const auto amp_a = state.amplitude((b << k) | a);
            if (amp_a == std::complex<double>(0.0))
                continue;
            for (std::size_t a2 = 0; a2 < dim_a; ++a2) {
                const auto amp_a2 = state.amplitude((b << k) | a2);
                rho[a * dim_a + a2] += mulConj(amp_a, amp_a2);
            }
        }
    }

    const auto eig = linalg::hermitianEigenvalues(
        rho, static_cast<int>(dim_a));

    double entropy = 0.0;
    for (double lambda : eig) {
        if (lambda > 1e-12)
            entropy -= lambda * std::log2(lambda);
    }
    // Clamp tiny negative rounding noise.
    return entropy < 0.0 ? 0.0 : entropy;
}

double
entanglementEntropy(const StateVector &state)
{
    return entanglementEntropy(state, state.numQubits() / 2);
}

} // namespace hammer::sim
