#include "core/method.hpp"

#include "utils/logging.hpp"

namespace bayesft::core {

namespace {

class ErmMethod : public Method {
public:
    std::string name() const override { return "ERM"; }
    std::uint64_t seed_offset() const override { return 1; }
    TrainedMethod train(const ModelFactory& factory,
                        const data::Dataset& train_set,
                        const data::Dataset& test_set,
                        std::size_t num_classes,
                        const ExperimentConfig& config,
                        Rng& rng) const override {
        auto model = std::make_shared<models::ModelHandle>(
            factory(num_classes, rng));
        log_info() << "[experiment] training ERM / " << model->name;
        train_erm(*model, train_set, config.train, rng);
        TrainedMethod trained;
        trained.net = model->net.get();
        trained.holder = std::move(model);
        trained.metric = accuracy_on(test_set);
        return trained;
    }
};

class FtnaMethod : public Method {
public:
    std::string name() const override { return "FTNA"; }
    std::uint64_t seed_offset() const override { return 2; }
    TrainedMethod train(const ModelFactory& factory,
                        const data::Dataset& train_set,
                        const data::Dataset& test_set,
                        std::size_t num_classes,
                        const ExperimentConfig& config,
                        Rng& rng) const override {
        models::ModelHandle model = factory(config.ftna_code_bits, rng);
        log_info() << "[experiment] training FTNA / " << model.name;
        auto ftna = std::make_shared<FtnaClassifier>(
            std::move(model), num_classes, config.ftna_code_bits, rng);
        ftna->train(train_set, config.train, rng);
        TrainedMethod trained;
        trained.net = &ftna->network();
        trained.metric = [ftna, &test_set](nn::Module&) {
            return ftna->evaluate_accuracy(test_set.images, test_set.labels);
        };
        trained.holder = std::move(ftna);
        // The FTNA metric decodes through the wrapper's own network, not
        // the module it is handed, so the sweep must stay serial.
        trained.sweep_threads = 1;
        return trained;
    }
};

class ReRamVMethod : public Method {
public:
    std::string name() const override { return "ReRAM-V"; }
    std::uint64_t seed_offset() const override { return 3; }
    TrainedMethod train(const ModelFactory& factory,
                        const data::Dataset& train_set,
                        const data::Dataset& test_set,
                        std::size_t num_classes,
                        const ExperimentConfig& config,
                        Rng& rng) const override {
        auto model = std::make_shared<models::ModelHandle>(
            factory(num_classes, rng));
        log_info() << "[experiment] training ReRAM-V / " << model->name;
        ReRamVConfig reram = config.reram_v;
        reram.pretrain = config.train;
        train_reram_v(*model, train_set, reram, rng);
        TrainedMethod trained;
        trained.net = model->net.get();
        trained.holder = std::move(model);
        trained.metric = accuracy_on(test_set);
        return trained;
    }
};

class AwpMethod : public Method {
public:
    std::string name() const override { return "AWP"; }
    std::uint64_t seed_offset() const override { return 4; }
    TrainedMethod train(const ModelFactory& factory,
                        const data::Dataset& train_set,
                        const data::Dataset& test_set,
                        std::size_t num_classes,
                        const ExperimentConfig& config,
                        Rng& rng) const override {
        auto model = std::make_shared<models::ModelHandle>(
            factory(num_classes, rng));
        log_info() << "[experiment] training AWP / " << model->name;
        AwpConfig awp = config.awp;
        awp.train = config.train;
        train_awp(*model, train_set, awp, rng);
        TrainedMethod trained;
        trained.net = model->net.get();
        trained.holder = std::move(model);
        trained.metric = accuracy_on(test_set);
        return trained;
    }
};

class BayesFTMethod : public Method {
public:
    std::string name() const override { return "BayesFT"; }
    std::uint64_t seed_offset() const override { return 5; }
    TrainedMethod train(const ModelFactory& factory,
                        const data::Dataset& train_set,
                        const data::Dataset& test_set,
                        std::size_t num_classes,
                        const ExperimentConfig& config,
                        Rng& rng) const override {
        auto model = std::make_shared<models::ModelHandle>(
            factory(num_classes, rng));
        log_info() << "[experiment] running BayesFT search / " << model->name;
        // Hold out part of the training set for the search's utility.
        Rng split_rng(config.seed + 6);
        const data::TrainTestSplit inner =
            data::split(train_set, 0.25, split_rng);
        const BayesFTResult search = bayesft_search(
            *model, inner.train, inner.test, config.bayesft, rng);
        TrainedMethod trained;
        trained.net = model->net.get();
        trained.holder = std::move(model);
        trained.metric = accuracy_on(test_set);
        trained.best_alpha = search.best_alpha;
        trained.trials = search.trials;
        trained.trial_points = search.trial_points;
        trained.search_completed = search.completed;
        trained.resumed_trials = search.resumed_trials;
        return trained;
    }
};

}  // namespace

std::vector<std::unique_ptr<Method>> make_methods(const MethodSet& set) {
    std::vector<std::unique_ptr<Method>> methods;
    if (set.erm) methods.push_back(std::make_unique<ErmMethod>());
    if (set.ftna) methods.push_back(std::make_unique<FtnaMethod>());
    if (set.reram_v) methods.push_back(std::make_unique<ReRamVMethod>());
    if (set.awp) methods.push_back(std::make_unique<AwpMethod>());
    if (set.bayesft) methods.push_back(std::make_unique<BayesFTMethod>());
    return methods;
}

}  // namespace bayesft::core
